package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The gate under test, one entry point per suite. Every case below
// holds a bound from docs/BENCHMARKS.md to its edge: a just-inside
// input passes and a just-outside input fails.
func gateFleet(cur, bas *Report) error             { return gate(fleetRows(cur, bas)) }
func gateLearn(cur, bas *LearnReport) error        { return gate(learnRows(cur, bas)) }
func gateServe(cur, bas *ServeReport) error        { return gate(serveRows(cur, bas)) }
func gateScenarios(cur, bas *ScenarioReport) error { return gate(scenarioRows(cur, bas)) }

// loadCommitted parses one committed baseline from the repo root.
func loadCommitted[T any](t *testing.T, name string) *T {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// expect runs one gate case and reports a pass/fail mismatch.
func expect(t *testing.T, name string, wantPass bool, err error) {
	t.Helper()
	if wantPass && err != nil {
		t.Errorf("%s: want pass, got %v", name, err)
	}
	if !wantPass && err == nil {
		t.Errorf("%s: want failure, got pass", name)
	}
}

func TestGateCommittedBaselinesPassAgainstThemselves(t *testing.T) {
	fleetRep := loadCommitted[Report](t, "BENCH_fleet.json")
	expect(t, "BENCH_fleet.json", true, gateFleet(fleetRep, fleetRep))
	learnRep := loadCommitted[LearnReport](t, "BENCH_learn.json")
	expect(t, "BENCH_learn.json", true, gateLearn(learnRep, learnRep))
	serveRep := loadCommitted[ServeReport](t, "BENCH_serve.json")
	expect(t, "BENCH_serve.json", true, gateServe(serveRep, serveRep))
	scenRep := loadCommitted[ScenarioReport](t, "BENCH_scenarios.json")
	expect(t, "BENCH_scenarios.json", true, gateScenarios(scenRep, scenRep))
}

func TestGateFleetBounds(t *testing.T) {
	bas := &Report{
		Fleet:               FleetBench{StepsPerSec: 1e7, AllocsPerOp: 5934},
		SignatureCollection: Bench{AllocsPerOp: 3},
		ServicePerf:         Bench{AllocsPerOp: 0},
		FleetScale: []FleetScaleBench{
			{VMs: 10000, StepsPerSecPerCore: 3e7},
			{VMs: 100000, StepsPerSecPerCore: 2.5e7},
			{VMs: 50000}, // recorded without a per-core figure
		},
	}
	clone := func(mut func(*Report)) *Report {
		c := *bas
		c.FleetScale = append([]FleetScaleBench(nil), bas.FleetScale...)
		mut(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		pass bool
		mut  func(*Report)
	}{
		{"steps/s x0.80", true, func(r *Report) { r.Fleet.StepsPerSec = 1e7 * 0.80 }},
		{"steps/s x0.79", false, func(r *Report) { r.Fleet.StepsPerSec = 1e7 * 0.79 }},
		{"fleet allocs bas+bas/10", true, func(r *Report) { r.Fleet.AllocsPerOp = 5934 + 593 }},
		{"fleet allocs bas+bas/10+1", false, func(r *Report) { r.Fleet.AllocsPerOp = 5934 + 594 }},
		{"signature_collection allocs bas", true, func(r *Report) { r.SignatureCollection.AllocsPerOp = 3 }},
		{"signature_collection allocs bas+1", false, func(r *Report) { r.SignatureCollection.AllocsPerOp = 4 }},
		{"service_perf allocs bas", true, func(r *Report) { r.ServicePerf.AllocsPerOp = 0 }},
		{"service_perf allocs bas+1", false, func(r *Report) { r.ServicePerf.AllocsPerOp = 1 }},
		{"scale 10k per-core x0.80", true, func(r *Report) { r.FleetScale[0].StepsPerSecPerCore = 3e7 * 0.80 }},
		{"scale 10k per-core x0.79", false, func(r *Report) { r.FleetScale[0].StepsPerSecPerCore = 3e7 * 0.79 }},
		{"scale 100k per-core x0.79", false, func(r *Report) { r.FleetScale[1].StepsPerSecPerCore = 2.5e7 * 0.79 }},
		{"scale row absent from baseline", true, func(r *Report) {
			r.FleetScale = append(r.FleetScale, FleetScaleBench{VMs: 20000, StepsPerSecPerCore: 1})
		}},
		{"scale row without a baseline per-core figure", true, func(r *Report) { r.FleetScale[2].StepsPerSecPerCore = 1 }},
		{"scale subset of the baseline", true, func(r *Report) { r.FleetScale = r.FleetScale[:1] }},
	} {
		expect(t, tc.name, tc.pass, gateFleet(clone(tc.mut), bas))
	}
}

func TestGateLearnBounds(t *testing.T) {
	bas := &LearnReport{KMeansAuto: LearnBench{FastMs: 300, Speedup: 10, ChosenK: 5, BaselineChosenK: 5}}
	for _, tc := range []struct {
		name string
		pass bool
		mut  func(*LearnBench)
	}{
		{"fast and reference k equal", true, func(l *LearnBench) {}},
		{"fast and reference k differ", false, func(l *LearnBench) { l.BaselineChosenK = 4 }},
		{"chosen k drifts from baseline", false, func(l *LearnBench) { l.ChosenK, l.BaselineChosenK = 6, 6 }},
		{"fast_ms x1.20", true, func(l *LearnBench) { l.FastMs = 300 * 1.20 }},
		{"fast_ms x1.21", false, func(l *LearnBench) { l.FastMs = 300 * 1.21 }},
		{"speedup 5.0", true, func(l *LearnBench) { l.Speedup = 5.0 }},
		{"speedup 4.99", false, func(l *LearnBench) { l.Speedup = 4.99 }},
	} {
		cur := *bas
		tc.mut(&cur.KMeansAuto)
		expect(t, tc.name, tc.pass, gateLearn(&cur, bas))
	}
	// A baseline recorded without a chosen k gates only the current
	// run's own fast/reference agreement.
	noK := &LearnReport{KMeansAuto: LearnBench{FastMs: 300}}
	cur := &LearnReport{KMeansAuto: LearnBench{FastMs: 300, Speedup: 10, ChosenK: 7, BaselineChosenK: 7}}
	expect(t, "baseline chosen k 0", true, gateLearn(cur, noK))
}

// serveAxes lists a report's five decisions/s axes.
func serveAxes(r *ServeReport) []*ServeBench {
	return []*ServeBench{&r.ServeJSON, &r.ServeBin, &r.ServeTCP, &r.ServeTCPMulticore, &r.ServeReplicated}
}

func TestGateServeBounds(t *testing.T) {
	// Ratios with room to spare, so each axis bound is probed alone.
	mk := func(cores int) *ServeReport {
		return &ServeReport{
			ServeJSON:         ServeBench{DecisionsPerSec: 1e5, Cores: 1},
			ServeBin:          ServeBench{DecisionsPerSec: 1e6, Cores: 1},
			ServeTCP:          ServeBench{DecisionsPerSec: 1e7, Cores: 1},
			ServeTCPMulticore: ServeBench{DecisionsPerSec: 1e7, Cores: cores},
			ServeReplicated:   ServeBench{DecisionsPerSec: 1e6, Cores: cores},
		}
	}
	bas := mk(1)
	for i, name := range []string{"serve_json", "serve_binary", "serve_tcp", "serve_tcp_multicore", "serve_replicated"} {
		for _, tc := range []struct {
			factor float64
			pass   bool
		}{{0.80, true}, {0.79, false}} {
			cur := mk(1)
			ax := serveAxes(cur)[i]
			ax.DecisionsPerSec *= tc.factor
			expect(t, name+" x"+strconv.FormatFloat(tc.factor, 'g', -1, 64), tc.pass, gateServe(cur, bas))
		}
		// An axis the baseline lacks is skipped.
		absent := mk(1)
		serveAxes(absent)[i].DecisionsPerSec = 0
		cur := mk(1)
		serveAxes(cur)[i].DecisionsPerSec *= 0.5
		expect(t, name+" absent from baseline", true, gateServe(cur, absent))
	}

	// Multicore is compared only on the baseline's core count.
	cur := mk(1)
	cur.ServeTCPMulticore.DecisionsPerSec *= 0.5
	expect(t, "multicore core-count mismatch", true, gateServe(cur, mk(4)))

	// Ratio floors, on a baseline with every axis absent.
	empty := &ServeReport{}
	for _, tc := range []struct {
		name           string
		json, bin, tcp float64
		pass           bool
	}{
		{"binary/json 1.5", 1e5, 1.5e5, 0, true},
		{"binary/json 1.4999", 1e5, 149990, 0, false},
		{"binary/json without json", 0, 1, 0, true},
		{"tcp/binary 2.0", 0, 1e5, 2e5, true},
		{"tcp/binary 1.9999", 0, 1e5, 199990, false},
	} {
		cur := &ServeReport{
			ServeJSON: ServeBench{DecisionsPerSec: tc.json},
			ServeBin:  ServeBench{DecisionsPerSec: tc.bin},
			ServeTCP:  ServeBench{DecisionsPerSec: tc.tcp},
		}
		expect(t, tc.name, tc.pass, gateServe(cur, empty))
	}

	// Multicore must keep up with single-core TCP when it has cores.
	for _, tc := range []struct {
		name  string
		cores int
		multi float64
		pass  bool
	}{
		{"multicore = tcp at 4 cores", 4, 1e7, true},
		{"multicore below tcp at 4 cores", 4, 1e7 - 1, false},
		{"multicore below tcp at 1 core", 1, 1e7 - 1, true},
	} {
		cur := mk(tc.cores)
		cur.ServeTCPMulticore.DecisionsPerSec = tc.multi
		expect(t, tc.name, tc.pass, gateServe(cur, mk(tc.cores)))
	}
}

func TestGateScenarioBounds(t *testing.T) {
	row := func(kind string) ScenarioRow {
		return ScenarioRow{Kind: kind, HitRate: 0.5, SLOViolationFraction: 0.4, CostUSD: 300}
	}
	mk := func() *ScenarioReport {
		return &ScenarioReport{Baseline: row("baseline"), Scenarios: []ScenarioRow{row("flash-crowd"), row("churn")}}
	}
	bas := mk()
	for _, tc := range []struct {
		name string
		pass bool
		mut  func(*ScenarioRow)
	}{
		{"hit +0.19", true, func(r *ScenarioRow) { r.HitRate += 0.19 }},
		{"hit -0.19", true, func(r *ScenarioRow) { r.HitRate -= 0.19 }},
		{"hit +0.21", false, func(r *ScenarioRow) { r.HitRate += 0.21 }},
		{"hit -0.21", false, func(r *ScenarioRow) { r.HitRate -= 0.21 }},
		{"slo +0.19", true, func(r *ScenarioRow) { r.SLOViolationFraction += 0.19 }},
		{"slo -0.19", true, func(r *ScenarioRow) { r.SLOViolationFraction -= 0.19 }},
		{"slo +0.21", false, func(r *ScenarioRow) { r.SLOViolationFraction += 0.21 }},
		{"slo -0.21", false, func(r *ScenarioRow) { r.SLOViolationFraction -= 0.21 }},
		{"cost x1.19", true, func(r *ScenarioRow) { r.CostUSD *= 1.19 }},
		{"cost x0.81", true, func(r *ScenarioRow) { r.CostUSD *= 0.81 }},
		{"cost x1.21", false, func(r *ScenarioRow) { r.CostUSD *= 1.21 }},
		{"cost x0.79", false, func(r *ScenarioRow) { r.CostUSD *= 0.79 }},
	} {
		for i := 0; i < 2; i++ { // the unperturbed row, then an adversarial kind
			cur := mk()
			target := &cur.Baseline
			if i == 1 {
				target = &cur.Scenarios[1]
			}
			tc.mut(target)
			expect(t, target.Kind+" "+tc.name, tc.pass, gateScenarios(cur, bas))
		}
	}

	// Cost is gated only against a positive baseline cost.
	free := mk()
	free.Scenarios[0].CostUSD = 0
	cur := mk()
	cur.Scenarios[0].CostUSD = 1e6
	expect(t, "baseline cost 0", true, gateScenarios(cur, free))

	// A baseline kind the run lacks fails; a kind the baseline lacks
	// passes; an empty-kind baseline row is skipped.
	missing := mk()
	missing.Scenarios = missing.Scenarios[:1]
	expect(t, "baseline kind missing from run", false, gateScenarios(missing, bas))
	extra := mk()
	extra.Scenarios = append(extra.Scenarios, ScenarioRow{Kind: "trace-replay", HitRate: 0, CostUSD: 1})
	expect(t, "kind absent from baseline", true, gateScenarios(extra, bas))
	unnamed := mk()
	unnamed.Scenarios = append(unnamed.Scenarios, ScenarioRow{HitRate: 1, SLOViolationFraction: 1, CostUSD: 1e9})
	expect(t, "empty-kind baseline row", true, gateScenarios(mk(), unnamed))
}

// TestGateReportsEveryViolation: a run that breaks several rows names
// every one of them, not just the first.
func TestGateReportsEveryViolation(t *testing.T) {
	fleetBas := loadCommitted[Report](t, "BENCH_fleet.json")
	fleetCur := *fleetBas
	fleetCur.Fleet.StepsPerSec *= 0.5
	fleetCur.ServicePerf.AllocsPerOp++
	scenBas := loadCommitted[ScenarioReport](t, "BENCH_scenarios.json")
	scenCur := *scenBas
	scenCur.Scenarios = append([]ScenarioRow(nil), scenBas.Scenarios[1:]...)
	scenCur.Baseline.CostUSD *= 2
	for _, tc := range []struct {
		err   error
		names []string
	}{
		{gateFleet(&fleetCur, fleetBas), []string{"fleet.steps_per_sec", "service_perf.allocs_per_op"}},
		{gateScenarios(&scenCur, scenBas), []string{"scenarios[baseline].cost_usd", "scenarios[" + scenBas.Scenarios[0].Kind + "] present"}},
	} {
		for _, name := range tc.names {
			if tc.err == nil || !strings.Contains(tc.err.Error(), name) {
				t.Errorf("error %v does not name %s", tc.err, name)
			}
		}
	}
}

func TestGateFailsNaN(t *testing.T) {
	if gate([]row{atLeast("nan", math.NaN(), 0)}) == nil {
		t.Error("a NaN value passed the gate")
	}
}
