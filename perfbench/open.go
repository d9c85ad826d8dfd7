package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/wire"
)

// decide-open parameters. The ladder is fixed: rung i offers
// openNominalRate*openRungFactor^i decisions/s. A rung passes when its
// p99, timed from each request's due time, meets openP99Limit and the
// backlog did not grow.
const (
	openBatch       = 16
	openConns       = 2
	openNominalRate = 1_200_000 // decisions/s
	openRungFactor  = 1.1
	openRungs       = 24 // the top rung, 10.7M/s, is about 3x the reference VM's capacity
	openCoarseStep  = 4  // a first search climbs 4 rungs at a time, then refines
	openRungTime    = 750 * time.Millisecond
	openP99Limit    = 20 * time.Millisecond
	openWindow      = 100 * time.Millisecond // p99 is the median of per-window p99s
	openSetups      = 9
	openPingEvery   = 64 // traced runs send a ping ahead of every 64th request
	openVerifyEvery = 4  // one response in 4 is decoded and checked row by row
	openScenarios   = 16 // learned template sets served, see setupOpen

	poolForeseen   = 128 // distinct foreseen signatures per template
	poolUnforeseen = 32  // distinct unforeseen signatures per template
	poolPayloads   = 4096

	// The traffic mix is fleet-remote's, measured: over 5 seeds × 16
	// workload-shift scenarios of 600 VMs (1,152,000 lookups), 9.88% of
	// the lookups were unforeseen and 0.28% found a known class with no
	// allocation cached for their interference bucket (hit ratio 0.8984).
	// A contended request carries one bucket for all its rows, so its
	// share is that miss share over the foreseen rows, 0.0028/(1-0.0988);
	// the pool's expected hit ratio is then (1-0.0988)(1-0.0031) = 0.8984.
	unforeseenShare = 0.0988 // exact share of unforeseen rows over the pool
	contendedShare  = 0.0031 // exact share of requests with a non-zero interference bucket
)

// openTemplate is one learned service template the daemon serves.
type openTemplate struct {
	name  string
	svc   services.Service
	spec  sim.VMSpec
	repo  *core.Repository // served by the daemon
	ref   *core.Repository // an independent copy, for expected decisions
	tuner core.Tuner

	foreseen, unforeseen []openRow
}

// openRow is one pool signature and the workload it was profiled from.
type openRow struct {
	w      services.Workload
	values []float64
}

// openPayload is one encoded batch request with the decisions the
// reference repository makes for it and their consequences.
type openPayload struct {
	tpl      *openTemplate
	bucket   int
	payload  []byte
	rows     [][]float64
	expected []wire.Decision
	outcome  rowOutcome
}

// rowOutcome sums what a batch's decisions imply, had a controller
// applied them to each row's workload: SLO violations under the row's
// contention, the daily price of the chosen allocation, and the
// decision time (signature collection, plus tuning on a miss).
type rowOutcome struct {
	rows, hits, unforeseen, violations int64
	costPerDay, decisionS              float64
}

func (o *rowOutcome) add(p rowOutcome) {
	o.rows += p.rows
	o.hits += p.hits
	o.unforeseen += p.unforeseen
	o.violations += p.violations
	o.costPerDay += p.costPerDay
	o.decisionS += p.decisionS
}

// openSetup is everything decide-open serves and sends.
type openSetup struct {
	templates []*openTemplate
	payloads  []*openPayload
	order     []int32 // payload of the request at order position i is order[i%len(order)]
	daemon    *daemon

	genTime, learnTime time.Duration
}

// setupOpen learns the three service templates of each of the seed's
// first openScenarios scenarios (so a run's figures average over
// several learned repositories, not one), builds the request pool and
// starts a daemon serving every template.
func setupOpen(seed int64, workers int) (*openSetup, error) {
	st := &openSetup{}
	for i := 0; i < openScenarios; i++ {
		specs, gen, err := genFleet(subSeed(seed, i), sim.KindBaseline, 4) // one VM of each template, Cassandra twice
		if err != nil {
			return nil, err
		}
		st.genTime += gen
		seen := map[string]bool{}
		for _, s := range specs {
			if !seen[s.Service.Name()] {
				seen[s.Service.Name()] = true
				name := fmt.Sprintf("%s-%d", s.Service.Name(), i)
				st.templates = append(st.templates, &openTemplate{name: name, svc: s.Service, spec: s})
			}
		}
	}
	start := time.Now()
	errs := make([]error, len(st.templates))
	parallel.Do(workers, len(st.templates), func(i int) { errs[i] = st.templates[i].learn() })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	st.learnTime = time.Since(start)

	if err := st.buildPool(seed); err != nil {
		return nil, err
	}
	handles := map[string]*core.Handle{}
	for _, t := range st.templates {
		h, err := core.NewHandle(t.repo)
		if err != nil {
			return nil, err
		}
		handles[t.name] = h
	}
	var err error
	if st.daemon, err = startDaemon(handles); err != nil {
		return nil, err
	}
	return st, nil
}

// learn runs the template's learning phase, then keeps an independent
// copy of the result.
func (t *openTemplate) learn() error {
	repo, err := learnTemplate(t.spec, core.NewSharedTuningCache(), 1)
	if err != nil {
		return fmt.Errorf("learning %s: %w", t.name, err)
	}
	if t.ref, err = copyRepo(repo); err != nil {
		return err
	}
	t.repo = repo
	t.tuner, err = fleet.DefaultTuner(t.svc)
	return err
}

// shiftedMix is the template's alternative request mix — the one the
// workload-shift scenario flips to.
func shiftedMix(svc services.Service) services.Mix {
	switch s := svc.(type) {
	case *services.Cassandra:
		return s.ReadMostlyMix()
	case *services.SPECWeb:
		return s.EcommerceMix()
	case *services.RUBiS:
		return s.SellingMix()
	}
	return svc.DefaultMix()
}

// drawRows profiles pool rows for the template: foreseen ones from its
// run-day load under its own mix, unforeseen ones from the shifted mix
// at 1.5–3.5x the day's peak. A candidate is kept only when the
// reference repository classifies it as wanted.
func (t *openTemplate) drawRows(seed int64) error {
	r := rng.New(seed)
	prof, err := core.NewProfiler(t.svc, r)
	if err != nil {
		return err
	}
	loads := t.spec.RunTrace.Loads
	peak := 0.0
	for _, l := range loads {
		peak = math.Max(peak, l)
	}
	draw := func(wantUnforeseen bool, n int) ([]openRow, error) {
		var out []openRow
		for tries := 0; len(out) < n; tries++ {
			if tries > 50*n {
				return nil, fmt.Errorf("template %s: only %d of %d pool rows with unforeseen=%v", t.name, len(out), n, wantUnforeseen)
			}
			w := services.Workload{Clients: loads[r.Intn(len(loads))], Mix: t.spec.Mix}
			if wantUnforeseen {
				w = services.Workload{Clients: peak * (1.5 + 2*r.Float64()), Mix: shiftedMix(t.svc)}
			}
			sig, err := prof.Profile(w, t.ref.EventsRef())
			if err != nil {
				return nil, err
			}
			_, _, unf, err := t.ref.Classify(sig)
			if err != nil {
				return nil, err
			}
			if unf == wantUnforeseen {
				out = append(out, openRow{w: w, values: sig.Values})
			}
		}
		return out, nil
	}
	if t.foreseen, err = draw(false, poolForeseen); err != nil {
		return err
	}
	t.unforeseen, err = draw(true, poolUnforeseen)
	return err
}

// buildPool profiles the seed's signature pool and encodes the batch
// requests with their expected decisions. The shares of unforeseen
// rows and of contended requests are exact, so they do not vary with
// the seed; which rows and requests carry them does.
func (st *openSetup) buildPool(seed int64) error {
	for i, t := range st.templates {
		if err := t.drawRows(rng.Derive(seed, 1000+i)); err != nil {
			return err
		}
	}
	r := rng.New(rng.Derive(seed, 2000))
	unforeseenSlot := exactShare(r.Perm(poolPayloads*openBatch), unforeseenShare)
	contended := exactShare(r.Perm(poolPayloads), contendedShare)
	var req wire.Request
	for i := 0; i < poolPayloads; i++ {
		t := st.templates[i%len(st.templates)]
		p := &openPayload{tpl: t}
		contention := 0.0
		if contended[i] {
			p.bucket = 1 + r.Intn(6)
			contention = (float64(p.bucket) - r.Float64()) * core.InterferenceBucketWidth
		}
		req.Reset()
		req.SetTemplate(t.name)
		req.Bucket = p.bucket
		rows := make([]openRow, openBatch)
		for j := range rows {
			if unforeseenSlot[i*openBatch+j] {
				rows[j] = t.unforeseen[r.Intn(len(t.unforeseen))]
			} else {
				rows[j] = t.foreseen[r.Intn(len(t.foreseen))]
			}
			req.AppendRow(rows[j].values)
			p.rows = append(p.rows, rows[j].values)
		}
		var err error
		if p.payload, err = req.AppendBinary(nil); err != nil {
			return err
		}
		for _, row := range rows {
			d, o, err := t.expect(row, p.bucket, contention)
			if err != nil {
				return err
			}
			p.expected = append(p.expected, d)
			p.outcome.add(o)
		}
		st.payloads = append(st.payloads, p)
	}
	// Every payload is sent equally often, in a seeded order: the order
	// interleaves openVerifyEvery shuffles of the pool, so the verified
	// requests (order positions i with i%openVerifyEvery == 0) are one
	// whole shuffle and their outcomes are the pool's, not a
	// seed-dependent sample of it. Phases continue the order where the
	// one before stopped.
	st.order = make([]int32, openVerifyEvery*len(st.payloads))
	for j := 0; j < openVerifyEvery; j++ {
		for i, p := range r.Perm(len(st.payloads)) {
			st.order[i*openVerifyEvery+j] = int32(p)
		}
	}
	return nil
}

// exactShare marks the first round(share*n) slots of a permutation of
// n slots.
func exactShare(perm []int, share float64) []bool {
	marked := make([]bool, len(perm))
	for _, i := range perm[:int(math.Round(share*float64(len(perm))))] {
		marked[i] = true
	}
	return marked
}

// expect computes the decision the daemon must return for row — an
// in-process lookup on the independent copy — and what it implies.
func (t *openTemplate) expect(row openRow, bucket int, contention float64) (wire.Decision, rowOutcome, error) {
	sig := &core.Signature{Events: t.ref.EventsRef(), Values: row.values}
	res, err := t.ref.Lookup(sig, bucket)
	if err != nil {
		return wire.Decision{}, rowOutcome{}, err
	}
	d := wire.Decision{Class: res.Class, Certainty: res.Certainty, Unforeseen: res.Unforeseen, Hit: res.Hit}
	o := rowOutcome{rows: 1, decisionS: core.DefaultSignatureWindow.Seconds()}
	var alloc cloud.Allocation
	switch {
	case res.Hit:
		d.Type, d.Count = res.Allocation.Type.ID(), res.Allocation.Count
		alloc = res.Allocation
		o.hits = 1
	case res.Unforeseen:
		alloc = t.svc.MaxAllocation()
		o.unforeseen = 1
	default:
		// Known class, uncached bucket: the controller tunes under the
		// bucket's contention and caches the result.
		if alloc, err = t.tuner.Tune(row.w, core.FractionForBucket(bucket)); err != nil {
			return d, o, err
		}
		o.decisionS += t.tuner.Duration().Seconds()
	}
	if !t.svc.SLO().Met(t.svc.Perf(row.w, alloc.Capacity()*(1-contention))) {
		o.violations = 1
	}
	o.costPerDay = alloc.HourlyCost() * 24
	return d, o, nil
}

// sameDecision compares two decisions bit for bit.
func sameDecision(a, b *wire.Decision) bool {
	return a.Class == b.Class && math.Float64bits(a.Certainty) == math.Float64bits(b.Certainty) &&
		a.Unforeseen == b.Unforeseen && a.Hit == b.Hit && a.Type == b.Type && a.Count == b.Count
}

// openConn is one raw wire.Stream connection. Its write side is
// buffered, so a sender that wakes late writes every overdue request
// with one flush; its read side is a separate Stream for the receiver.
type openConn struct {
	nc net.Conn
	bw *bufio.Writer
	w  *wire.Stream
	r  *wire.Stream
}

func dialOpen(addr string) (*openConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		if err := tc.SetNoDelay(true); err != nil {
			nc.Close()
			return nil, err
		}
	}
	bw := bufio.NewWriterSize(nc, 64<<10)
	c := &openConn{nc: nc, bw: bw, w: wire.NewStream(struct {
		io.Reader
		io.Writer
	}{nc, bw}), r: wire.NewStream(nc)}
	if err := c.w.WriteClientHello(wire.EncodingBinary); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := c.r.ReadServerHello(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// phase is one open-loop pass at a fixed offered rate. Its slices
// alias the run's phaseBufs and are valid until the next phase.
type phase struct {
	rate                 float64 // decisions/s offered
	sent, answered       int64
	failed, mismatched   int64
	lat                  []time.Duration // per answered request, from its due time (to its decoded response, traced)
	svc                  []time.Duration // per answered request, from the sender turning to it
	lag                  []time.Duration // per sent request, the sender turning to it minus its due time
	k                    []int           // per answered request, its index in the schedule
	start                time.Time       // request k was due at start + due(k)
	due                  func(k int) time.Duration
	backlogMax           int64
	outstandingAtSendEnd int64
	outcome              rowOutcome
	// Traced runs only.
	encodeNs, decodeNs int64
	pings              []time.Duration
}

// phaseBufs is the per-request bookkeeping of a run, allocated once for
// the largest phase and reused, so the benchmark's own memory does not
// depend on how far the ladder climbs.
type phaseBufs struct {
	sendNs, pingNs          []atomic.Int64
	lat, svc, lag           []time.Duration
	k                       []int
	connLat, connSvc, pings [][]time.Duration
	connK                   [][]int
}

func newPhaseBufs(maxRequests, conns int) *phaseBufs {
	b := &phaseBufs{
		sendNs: make([]atomic.Int64, maxRequests),
		pingNs: make([]atomic.Int64, maxRequests/openPingEvery+1),
		lat:    make([]time.Duration, 0, maxRequests),
		svc:    make([]time.Duration, 0, maxRequests),
		lag:    make([]time.Duration, 0, maxRequests),
		k:      make([]int, 0, maxRequests),
	}
	for c := 0; c < conns; c++ {
		per := maxRequests/conns + 1
		b.connLat = append(b.connLat, make([]time.Duration, 0, per))
		b.connSvc = append(b.connSvc, make([]time.Duration, 0, per))
		b.connK = append(b.connK, make([]int, 0, per))
		b.pings = append(b.pings, make([]time.Duration, 0, per/openPingEvery+1))
	}
	return b
}

// runPhase offers openBatch-row lookups at rate decisions/s for dur,
// request k on connection k%openConns, carrying the payload at order
// position base+k. Request k is due at
// start + k/reqRate whatever happened before it: one sender goroutine
// sleeps until the next due time and then sends every request that is
// due, so a late wake-up sends the overdue ones at once rather than
// shifting the schedule, and every latency is timed from the due time.
func runPhase(conns []*openConn, st *openSetup, bufs *phaseBufs, base int, rate float64, dur time.Duration, traced bool) (*phase, error) {
	reqRate := rate / openBatch
	n := int(dur.Seconds() * reqRate)
	if n < len(conns) {
		n = len(conns)
	}
	if n > len(bufs.sendNs) {
		return nil, fmt.Errorf("phase of %d requests exceeds the %d preallocated", n, len(bufs.sendNs))
	}
	interval := float64(time.Second) / reqRate
	due := func(k int) time.Duration { return time.Duration(float64(k) * interval) }
	nc := len(conns)
	var sent, answered atomic.Int64
	start := time.Now().Add(time.Millisecond)
	ph := &phase{rate: rate, start: start, due: due}
	sendEnd := start.Add(due(n))
	deadline := sendEnd.Add(15 * time.Second)
	for _, c := range conns {
		if err := c.nc.SetDeadline(deadline); err != nil {
			return nil, err
		}
	}

	type recvResult struct {
		failed, mismatched int64
		outcome            rowOutcome
		decodeNs           int64
		err                error
	}
	recv := make([]recvResult, nc)
	var wg sync.WaitGroup
	for c := range conns {
		c := c
		res := &recv[c]
		perConn := (n - c + nc - 1) / nc
		pingsDue := 0
		if traced {
			for k := c; k < n; k += nc {
				if k%openPingEvery == 0 {
					pingsDue++
				}
			}
		}
		lat, svc, ks, pings := bufs.connLat[c][:0], bufs.connSvc[c][:0], bufs.connK[c][:0], bufs.pings[c][:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				bufs.connLat[c], bufs.connSvc[c], bufs.connK[c], bufs.pings[c] = lat, svc, ks, pings
			}()
			var resp wire.Response
			for got, npings := 0, 0; got < perConn || npings < pingsDue; {
				id, flags, body, err := conns[c].r.ReadEnvelope(1 << 20)
				now := time.Now()
				if err != nil {
					res.err = fmt.Errorf("connection %d after %d of %d responses: %w", c, got, perConn, err)
					return
				}
				if flags&wire.StreamFlagPing != 0 {
					npings++
					pings = append(pings, now.Sub(start)-time.Duration(bufs.pingNs[int(id&^(1<<31))].Load()))
					continue
				}
				got++
				answered.Add(1)
				k := c + int(id)*nc
				if k >= n {
					res.err = fmt.Errorf("connection %d: response id %d out of range", c, id)
					return
				}
				if flags&wire.StreamFlagError != 0 {
					res.failed++
					continue
				}
				// A sampled share of responses is decoded and compared
				// with the in-process lookup row by row; decoding every
				// response would take the daemon's CPU. Traced runs
				// decode all of them, to time the codec, and time each
				// request up to its decoded response.
				verify := (base+k)%openVerifyEvery == 0
				if verify || traced {
					if err := resp.DecodeBinary(body); err != nil {
						res.failed++
						continue
					}
					if traced {
						t1 := time.Now()
						res.decodeNs += int64(t1.Sub(now))
						now = t1
					}
				}
				lat = append(lat, now.Sub(start)-due(k))
				svc = append(svc, now.Sub(start)-time.Duration(bufs.sendNs[k].Load()))
				ks = append(ks, k)
				if !verify {
					continue
				}
				p := st.payloads[st.order[(base+k)%len(st.order)]]
				ok := len(resp.Results) == len(p.expected)
				for i := 0; ok && i < len(p.expected); i++ {
					ok = sameDecision(&resp.Results[i], &p.expected[i])
				}
				if !ok {
					res.mismatched++
					continue
				}
				res.outcome.add(p.outcome)
			}
		}()
	}

	// The sender runs on this goroutine.
	var sendErr error
	var req wire.Request
	var buf []byte
	lag := bufs.lag[:0]
	dirty := make([]bool, nc)
	for k := 0; k < n && sendErr == nil; {
		if d := time.Until(start.Add(due(k))); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		off := now.Sub(start)
		for ; k < n && due(k) <= off; k++ {
			c := k % nc
			p := st.payloads[st.order[(base+k)%len(st.order)]]
			payload := p.payload
			at := off // when the sender turned to request k
			if traced {
				// Re-encode from the rows so the traced run times the
				// client codec on the request path itself. The sender's
				// lag for k includes encoding the requests of its burst
				// ahead of k.
				t0 := time.Now()
				at = t0.Sub(start)
				req.Reset()
				req.SetTemplate(p.tpl.name)
				req.Bucket = p.bucket
				for _, row := range p.rows {
					req.AppendRow(row)
				}
				if buf, sendErr = req.AppendBinary(buf[:0]); sendErr != nil {
					break
				}
				t1 := time.Now()
				ph.encodeNs += int64(t1.Sub(t0))
				payload = buf
				if k%openPingEvery == 0 {
					// A ping written just ahead of request k, in the same
					// flush, waits behind the same earlier requests and
					// crosses the same connection, but carries no decision
					// work: its round trip is queueing plus transport, and
					// k's response follows it after k's own server work.
					i := k / openPingEvery
					bufs.pingNs[i].Store(int64(t1.Sub(start)))
					if sendErr = conns[c].w.WriteEnvelope(uint32(i)|1<<31, wire.StreamFlagPing, nil); sendErr != nil {
						break
					}
				}
			}
			bufs.sendNs[k].Store(int64(at))
			lag = append(lag, at-due(k))
			if sendErr = conns[c].w.WriteEnvelope(uint32(k/nc), wire.StreamFlagLookup, payload); sendErr != nil {
				break
			}
			dirty[c] = true
			if b := sent.Add(1) - answered.Load(); b > ph.backlogMax {
				ph.backlogMax = b
			}
		}
		for c, d := range dirty {
			if d && sendErr == nil {
				sendErr = conns[c].bw.Flush()
				dirty[c] = false
			}
		}
	}
	bufs.lag = lag
	if d := time.Until(sendEnd); d > 0 {
		time.Sleep(d)
	}
	ph.outstandingAtSendEnd = sent.Load() - answered.Load()
	if sendErr != nil {
		// Unblock the receivers: their responses will not all come.
		for _, c := range conns {
			c.nc.SetReadDeadline(time.Now())
		}
	}
	wg.Wait()

	errs := []error{sendErr}
	ph.lat, ph.svc, ph.k, ph.lag = bufs.lat[:0], bufs.svc[:0], bufs.k[:0], bufs.lag
	for c, r := range recv {
		ph.lat = append(ph.lat, bufs.connLat[c]...)
		ph.svc = append(ph.svc, bufs.connSvc[c]...)
		ph.k = append(ph.k, bufs.connK[c]...)
		ph.pings = append(ph.pings, bufs.pings[c]...)
		ph.failed += r.failed
		ph.mismatched += r.mismatched
		ph.outcome.add(r.outcome)
		ph.decodeNs += r.decodeNs
		errs = append(errs, r.err)
	}
	bufs.lat, bufs.svc, bufs.k = ph.lat, ph.svc, ph.k
	ph.sent = sent.Load()
	ph.answered = answered.Load()
	return ph, errors.Join(errs...)
}

// windowP99 is the median over openWindow-long slices of the schedule
// of each slice's p99. One scheduler stall on a shared machine delays
// every request due during it; this keeps a single stall from setting
// the whole phase's tail.
func (ph *phase) windowP99() time.Duration {
	if len(ph.lat) == 0 {
		return time.Duration(math.MaxInt64)
	}
	byWin := map[int][]time.Duration{}
	for i, k := range ph.k {
		w := int(ph.due(k) / openWindow)
		byWin[w] = append(byWin[w], ph.lat[i])
	}
	var p99s []float64
	for _, ls := range byWin {
		p99s = append(p99s, durQuantiles(ls, 0.99)[0])
	}
	return time.Duration(median(p99s) * 1e3)
}

// passes reports whether the rate was sustained: the windowed p99
// within the limit and no more requests outstanding when the schedule
// ended than one latency limit's worth of arrivals.
func (ph *phase) passes() bool {
	backlogCap := int64(ph.rate / openBatch * openP99Limit.Seconds())
	if backlogCap < 16 {
		backlogCap = 16
	}
	return ph.failed == 0 && ph.mismatched == 0 && ph.windowP99() <= openP99Limit && ph.outstandingAtSendEnd <= backlogCap
}

// openRun is the accounting shared by every phase of a run.
type openRun struct {
	rc      *runCtx
	st      *openSetup
	conns   []*openConn
	bufs    *phaseBufs
	next    int // order position of the next phase's first request
	outcome rowOutcome
}

func newOpenRun(rc *runCtx, st *openSetup, nominalTime time.Duration) (*openRun, error) {
	conns, err := st.dial()
	if err != nil {
		return nil, err
	}
	maxRequests := int(math.Max(openNominalRate*nominalTime.Seconds(), rung(openRungs-1)*openRungTime.Seconds())/openBatch) + 1
	return &openRun{rc: rc, st: st, conns: conns, bufs: newPhaseBufs(maxRequests, len(conns))}, nil
}

func (or *openRun) close() { closeConns(or.conns) }

func (or *openRun) phase(rate float64, dur time.Duration, traced bool) (*phase, error) {
	// Each phase starts from a collected heap.
	runtime.GC()
	ph, err := runPhase(or.conns, or.st, or.bufs, or.next, rate, dur, traced)
	if err != nil {
		return nil, err
	}
	or.next += int(ph.sent)
	or.rc.attempted += ph.sent
	or.rc.failed += ph.failed + ph.mismatched
	if ph.mismatched > 0 {
		or.rc.checkf("%d responses at %.0f decisions/s differ from the in-process lookup", ph.mismatched, rate)
	}
	if ph.answered != ph.sent {
		or.rc.checkf("%d of %d requests unanswered", ph.sent-ph.answered, ph.sent)
	}
	or.outcome.add(ph.outcome)
	return ph, nil
}

// rung returns the i-th rate of the fixed ladder (i = 0 is nominal).
func rung(i int) float64 { return openNominalRate * math.Pow(openRungFactor, float64(i)) }

// probe is one ladder rung's verdict.
type probe struct {
	rate float64
	p99  time.Duration
	pass bool
}

func probeOf(ph *phase) probe { return probe{ph.rate, ph.windowP99(), ph.passes()} }

// maxRate finds the highest passing rung of the ladder, within the
// time left, starting at rung from (whose verdict is given when known):
// while rungs pass it climbs step rungs at a time, then refines rung by
// rung above the last passing one; when the first rung fails it
// descends until one passes. A failing rung is run a second
// time and passes if either run does: one stall of a shared machine is
// not saturation. The result interpolates between the last passing
// rung and the failing rung above it by where the p99 limit falls
// between their p99s; the last passing rung's index is returned too.
// A pass at the ladder's top rung is an error: the capacity is above
// what the ladder can measure, and reporting the top rung would hide
// any further gain.
func (or *openRun) maxRate(from, step int, known *probe, until time.Time) (float64, int, error) {
	const top = openRungs - 1
	try := func(i int) (probe, error) {
		var best probe
		for attempt := 0; attempt < 2; attempt++ {
			ph, err := or.phase(rung(i), openRungTime, false)
			if err != nil {
				return probe{}, err
			}
			p := probeOf(ph)
			if attempt == 0 || p.p99 < best.p99 {
				best = p
			}
			if p.pass {
				return p, nil
			}
		}
		return best, nil
	}
	first := known
	if first == nil {
		p, err := try(from)
		if err != nil {
			return 0, 0, err
		}
		first = &p
	}
	lastPass, firstFail, passIdx := probe{}, probe{}, from
	if first.pass {
		lastPass = *first
		fail := -1
		for passIdx < top && time.Now().Before(until) {
			i := min(passIdx+step, top)
			p, err := try(i)
			if err != nil {
				return 0, 0, err
			}
			if !p.pass {
				fail, firstFail = i, p
				break
			}
			passIdx, lastPass = i, p
		}
		for i := passIdx + 1; fail > 0 && i < fail && time.Now().Before(until); i++ {
			p, err := try(i)
			if err != nil {
				return 0, 0, err
			}
			if !p.pass {
				firstFail = p
				break
			}
			passIdx, lastPass = i, p
		}
	} else {
		firstFail = *first
		for i := from - 1; i > -openRungs; i-- {
			p, err := try(i)
			if err != nil {
				return 0, 0, err
			}
			if p.pass {
				passIdx, lastPass = i, p
				break
			}
			firstFail = p
		}
	}
	notef("decide-open ladder: last passing rung %.0f/s (p99 %v), failing rung above it %.0f/s (p99 %v)",
		lastPass.rate, lastPass.p99, firstFail.rate, firstFail.p99)
	switch {
	case lastPass.rate == 0:
		return 0, 0, fmt.Errorf("no ladder rung down to %.0f decisions/s met p99 <= %v", rung(-openRungs+1), openP99Limit)
	case firstFail.rate == 0 && passIdx == top:
		return 0, 0, fmt.Errorf("the ladder's top rung, %.0f decisions/s, passed: raise openRungs so the ladder reaches saturation", rung(top))
	case firstFail.rate == 0:
		return lastPass.rate, passIdx, nil // the budget ran out before a rung failed
	}
	frac := float64(openP99Limit-lastPass.p99) / float64(firstFail.p99-lastPass.p99)
	frac = math.Max(0, math.Min(1, frac))
	return lastPass.rate + frac*(firstFail.rate-lastPass.rate), passIdx, nil
}

// setupsOpen builds the decide-open setup openSetups times and keeps
// the last; setup_s is the median.
func setupsOpen(rc *runCtx) (*openSetup, []float64, error) {
	var st *openSetup
	var times []float64
	for i := 0; i < openSetups; i++ {
		if st != nil {
			if err := st.daemon.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if st, err = setupOpen(rc.seed, rc.workers); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, times, nil
}

func (st *openSetup) dial() ([]*openConn, error) {
	conns := make([]*openConn, 0, openConns)
	for i := 0; i < openConns; i++ {
		c, err := dialOpen(st.daemon.tcpAddr)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeConns(conns []*openConn) {
	for _, c := range conns {
		c.nc.Close()
	}
}

// nominalReport prints the nominal phase's latency digest with its
// sample counts and returns p50 and the windowed p99 in microseconds.
func nominalReport(ph *phase) (p50, p99 float64) {
	q := durQuantiles(ph.lat, 0.5, 0.99)
	lag := durQuantiles(ph.lag, 0.99)
	p99 = float64(ph.windowP99()) / 1e3
	notef("decide-open: nominal %.0f decisions/s, %d requests of %d rows answered; from due time p50 %.1f us, p99 %.1f us over the phase (%d samples beyond it), median per-%v-window p99 %.1f us; sender lag p99 %.1f us; backlog max %d",
		ph.rate, len(ph.lat), openBatch, q[0], q[1], len(ph.lat)/100, openWindow, p99, lag[0], ph.backlogMax)
	return q[0], p99
}

// openNominalShare is the share of the budget the nominal phase takes;
// the ladder searches get the rest, each started only with
// openSearchTime left. A search after the first starts at the median
// passing rung so far and steps one rung at a time, so it usually takes
// three rung runs: one passing, one failing twice.
const (
	openNominalShare = 0.15
	openSearchTime   = 3 * time.Second
)

func runDecideOpen(rc *runCtx) error {
	st, setups, err := setupsOpen(rc)
	if err != nil {
		return err
	}
	defer st.daemon.close()
	nominalTime := time.Duration(openNominalShare * float64(rc.budget))
	or, err := newOpenRun(rc, st, nominalTime)
	if err != nil {
		return err
	}
	defer or.close()

	start := time.Now()
	nominal, err := or.phase(openNominalRate, nominalTime, false)
	if err != nil {
		return err
	}
	p50, p99 := nominalReport(nominal)
	// The ladder is searched again while the budget lasts; the result
	// is the median of the searches.
	verdict := probeOf(nominal)
	until := start.Add(rc.budget)
	var maxes []float64
	var passIdx []float64
	for len(maxes) == 0 || time.Until(until) > openSearchTime {
		from, step, known := 0, openCoarseStep, &verdict
		if len(maxes) > 0 {
			from, step, known = int(math.Round(median(passIdx))), 1, nil
		}
		max, idx, err := or.maxRate(from, step, known, until)
		if err != nil {
			return err
		}
		maxes = append(maxes, max)
		passIdx = append(passIdx, float64(idx))
	}
	notef("decide-open: max rate %.0f decisions/s, median of %v", median(maxes), maxes)
	notef("latency: decide p50 %.1f us, p99 %.1f us from the due time at %.0f decisions/s (reported per layer, not gated: see README.md)", p50, p99, float64(openNominalRate))
	o := or.outcome
	rc.set("setup_s", median(setups))
	rc.set("throughput_per_s", median(maxes))
	rc.set("slo_violation_frac", float64(o.violations)/float64(o.rows))
	rc.set("cost_usd_per_vm_day", o.costPerDay/float64(o.rows))
	rc.set("repo_hit_ratio", float64(o.hits)/float64(o.rows))
	rc.set("adapt_s_mean", o.decisionS/float64(o.rows))
	return nil
}
