package metrics

// Rates is a dense per-second event-rate vector indexed by the dense
// event index (see Index): a source fills one Rates value per reading
// and the Monitor reads it back by pre-resolved indices, so the
// steady-state hot path touches no maps and allocates nothing.
//
// The generation counter distinguishes "filled this reading" from
// stale leftovers: Fill bumps the generation instead of zeroing the
// vector, so refilling costs O(1) plus the writes the source actually
// performs. The service sources start every reading with SetAll
// (which marks everything current); a PARTIAL reading (Fill + a few
// Sets, as StaticSource does) relies on the per-entry marks so unset
// events read 0 rather than the previous reading's values. The extra
// mark writes sit on the per-profile-round path (~1/60 of simulation
// steps), not the per-step one. A Rates value is owned by a single
// goroutine.
type Rates struct {
	values []float64
	filled []uint32
	gen    uint32
}

// NewRates returns a Rates vector sized to the full event universe.
func NewRates() *Rates {
	n := NumEvents()
	return &Rates{values: make([]float64, n), filled: make([]uint32, n)}
}

// Len returns the vector length (NumEvents at construction time).
func (r *Rates) Len() int { return len(r.values) }

// Generation returns the current fill generation; it changes on every
// Fill, letting callers detect reuse of a stale snapshot.
func (r *Rates) Generation() uint32 { return r.gen }

// Fill starts a new reading: all entries read as 0 until Set again.
func (r *Rates) Fill() {
	r.gen++
	if r.gen == 0 {
		// Generation wrapped: the filled marks from 2^32 readings ago
		// would alias the new generation, so clear them once.
		for i := range r.filled {
			r.filled[i] = 0
		}
		r.gen = 1
	}
}

// Set stores the rate at a dense index for the current generation.
func (r *Rates) Set(i int, v float64) {
	r.values[i] = v
	r.filled[i] = r.gen
}

// At returns the rate at a dense index, or 0 when the entry was not
// Set since the last Fill (mirroring a map's missing-key read).
func (r *Rates) At(i int) float64 {
	if r.filled[i] != r.gen {
		return 0
	}
	return r.values[i]
}

// SetAll copies src (len NumEvents, dense order) as the current
// generation's reading in one shot.
func (r *Rates) SetAll(src []float64) {
	r.Fill()
	copy(r.values, src)
	for i := range r.filled {
		r.filled[i] = r.gen
	}
}
