package services

import (
	"math/rand"
	"testing"
)

// vectorTestCases enumerates every service with every mix its API
// exposes.
func vectorTestCases() []struct {
	svc   Service
	mixes []Mix
} {
	c := NewCassandra()
	s := NewSPECWeb()
	r := NewRUBiS()
	return []struct {
		svc   Service
		mixes []Mix
	}{
		{c, []Mix{c.DefaultMix(), c.ReadMostlyMix()}},
		{s, []Mix{s.DefaultMix(), s.BankingMix(), s.EcommerceMix()}},
		{r, []Mix{r.DefaultMix(), r.BrowsingMix(), r.SellingMix()}},
	}
}

// TestPerfMemoMatchesDirect: the memo must be bit-identical to direct
// Perf evaluation over arbitrary call sequences (including revisits
// that exercise the hit path and cell collisions).
func TestPerfMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range vectorTestCases() {
		memo := NewPerfMemo(tc.svc)
		points := make([]struct {
			w   Workload
			cap float64
		}, 40)
		for i := range points {
			points[i].w = Workload{Clients: rng.Float64() * 900, Mix: tc.mixes[rng.Intn(len(tc.mixes))]}
			points[i].cap = rng.Float64() * 12
		}
		for trial := 0; trial < 400; trial++ {
			p := points[rng.Intn(len(points))]
			got := memo.Perf(&p.w, p.cap)
			want := tc.svc.Perf(p.w, p.cap)
			if got != want {
				t.Fatalf("%s: memo %+v != direct %+v at clients=%v cap=%v",
					tc.svc.Name(), got, want, p.w.Clients, p.cap)
			}
		}
	}
}
