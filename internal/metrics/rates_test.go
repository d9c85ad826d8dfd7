package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestDenseIndexBijection: every catalog event has a unique dense
// index, HPC events come first, and EventAt inverts Index.
func TestDenseIndexBijection(t *testing.T) {
	evs := AllEvents()
	if NumEvents() != len(evs) {
		t.Fatalf("NumEvents %d != catalog size %d", NumEvents(), len(evs))
	}
	seen := make(map[int]bool)
	for i, ev := range evs {
		idx := Index(ev)
		if idx != i {
			t.Errorf("AllEvents()[%d] = %s has Index %d, want %d", i, ev, idx, i)
		}
		if seen[idx] {
			t.Errorf("duplicate dense index %d for %s", idx, ev)
		}
		seen[idx] = true
		if EventAt(idx) != ev {
			t.Errorf("EventAt(%d) = %s, want %s", idx, EventAt(idx), ev)
		}
		if IsHPCIndex(idx) != IsHPC(ev) {
			t.Errorf("IsHPCIndex(%d) != IsHPC(%s)", idx, ev)
		}
	}
	nHPC := len(HPCEvents())
	for i, ev := range evs {
		if (i < nHPC) != IsHPC(ev) {
			t.Errorf("event %s at %d breaks HPC-first ordering", ev, i)
		}
	}
	if Index("no_such_event") != -1 {
		t.Error("unknown event should have index -1")
	}
	if IsHPC("no_such_event") {
		t.Error("unknown event should not be HPC")
	}
}

// TestRatesGenerations: Fill starts a fresh reading without clearing
// the backing array; stale entries must read as 0.
func TestRatesGenerations(t *testing.T) {
	r := NewRates()
	if r.Len() != NumEvents() {
		t.Fatalf("Len %d != NumEvents %d", r.Len(), NumEvents())
	}
	r.Fill()
	r.Set(3, 42)
	if got := r.At(3); got != 42 {
		t.Fatalf("At(3) = %v, want 42", got)
	}
	gen := r.Generation()
	r.Fill()
	if r.Generation() == gen {
		t.Fatal("Fill must advance the generation")
	}
	if got := r.At(3); got != 0 {
		t.Fatalf("stale entry reads %v after Fill, want 0", got)
	}
	r.Set(3, 7)
	if got := r.At(3); got != 7 {
		t.Fatalf("At(3) = %v, want 7", got)
	}
}

// TestRatesSetAll: SetAll marks every entry current.
func TestRatesSetAll(t *testing.T) {
	r := NewRates()
	r.Fill()
	r.Set(3, 42)
	src := make([]float64, NumEvents())
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	r.SetAll(src)
	for i := range src {
		if got := r.At(i); got != src[i] {
			t.Fatalf("At(%d) = %v, want %v", i, got, src[i])
		}
	}
}

// vecSource serves a fixed Rates snapshot to monitor tests.
type vecSource struct{ rates *Rates }

func (v vecSource) RatesInto(dst *Rates) { dst.SetAll(v.rates.values) }

// TestSampleVectorMatchesSample: at a fixed seed Sample's map and
// SampleVector's dense output carry bit-identical readings.
func TestSampleVectorMatchesSample(t *testing.T) {
	src := vecSource{rates: NewRates()}
	src.rates.Fill()
	for i := 0; i < src.rates.Len(); i++ {
		src.rates.Set(i, float64(100+i*13))
	}
	events := AllEvents()[:10]

	viaMap, err := NewMonitor(events, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewMonitor(events, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := viaMap.Sample(src, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(events))
	if err := fast.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if dst[i] != s.Values[ev] {
			t.Fatalf("event %s: vector %v != map %v", ev, dst[i], s.Values[ev])
		}
	}
}

// TestSampleVectorAfterEventsReplaced: swapping the Events slice for
// another of the SAME length must re-resolve the dense indices — a
// length-only cache check would silently sample the old events.
func TestSampleVectorAfterEventsReplaced(t *testing.T) {
	src := vecSource{rates: NewRates()}
	src.rates.Fill()
	for i := 0; i < src.rates.Len(); i++ {
		src.rates.Set(i, float64(1000+i))
	}
	mon, err := NewMonitor([]Event{EvBusqEmpty, EvCPUClkUnhalt}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	if err := mon.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	mon.Events = []Event{EvXenNetTx, EvXenNetRx} // same length, different events
	ref, err := NewMonitor(mon.Events, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mon.Rng = rand.New(rand.NewSource(3))
	if err := mon.SampleVector(src, 10*time.Second, dst); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 2)
	if err := ref.SampleVector(src, 10*time.Second, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("after Events replacement: value[%d] = %v, want %v (stale dense indices?)", i, dst[i], want[i])
		}
	}
}

// TestSampleVectorValidation covers the error paths.
func TestSampleVectorValidation(t *testing.T) {
	mon, err := NewMonitor(AllEvents()[:4], rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	if err := mon.SampleVector(nil, 10*time.Second, dst); err == nil {
		t.Error("expected error for nil source")
	}
	if err := mon.SampleVector(StaticSource{}, 0, dst); err == nil {
		t.Error("expected error for non-positive window")
	}
	if err := mon.SampleVector(StaticSource{}, 10*time.Second, dst[:2]); err == nil {
		t.Error("expected error for mismatched dst length")
	}
}
