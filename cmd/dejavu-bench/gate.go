package main

import (
	"errors"
	"fmt"
	"math"
)

// The gate's fixed limits. Every bound is a CI contract recorded in
// docs/BENCHMARKS.md; changing one is a change to that contract, not a
// run-time choice.
const (
	// tolerance is the allowed fractional regression of every
	// baseline-relative bound, and the allowed absolute drift of the
	// scenario fractions.
	tolerance = 0.20
	// learnSpeedupFloor is the minimum KMeansAuto speedup over the
	// preserved reference path.
	learnSpeedupFloor = 5.0
	// serveBinaryFloor is the minimum binary/JSON decisions/s ratio.
	serveBinaryFloor = 1.5
	// serveTCPFloor is the minimum raw-TCP/binary-HTTP decisions/s
	// ratio.
	serveTCPFloor = 2.0
)

// row is one gated quantity: its current value must lie in [lo, hi].
// A skipped bound is a row that is never built.
type row struct {
	name   string
	value  float64
	lo, hi float64
}

func atLeast(name string, v, lo float64) row { return row{name, v, lo, math.Inf(1)} }
func atMost(name string, v, hi float64) row  { return row{name, v, math.Inf(-1), hi} }

func (r row) String() string {
	return fmt.Sprintf("%s = %.10g, allowed [%.10g, %.10g]", r.name, r.value, r.lo, r.hi)
}

// gate checks every row and reports each one outside its interval. A
// NaN value is outside every interval.
func gate(rows []row) error {
	var errs []error
	for _, r := range rows {
		if !(r.lo <= r.value && r.value <= r.hi) {
			errs = append(errs, errors.New(r.String()))
		}
	}
	return errors.Join(errs...)
}

// fleetRows gates the run phase: fleet steps/s may fall at most
// tolerance below the baseline; allocs/op may not grow (the fleet run
// alone gets 10% slack for goroutine machinery); each scale row's
// steps/s per core may fall at most tolerance below the baseline row
// of the same size. Scale rows the baseline lacks are skipped, so CI
// can run a subset of the recorded sizes.
func fleetRows(cur, bas *Report) []row {
	rows := []row{
		atLeast("fleet.steps_per_sec", cur.Fleet.StepsPerSec, bas.Fleet.StepsPerSec*(1-tolerance)),
		atMost("fleet.allocs_per_op", float64(cur.Fleet.AllocsPerOp), float64(bas.Fleet.AllocsPerOp+bas.Fleet.AllocsPerOp/10)),
		atMost("signature_collection.allocs_per_op", float64(cur.SignatureCollection.AllocsPerOp), float64(bas.SignatureCollection.AllocsPerOp)),
		atMost("service_perf.allocs_per_op", float64(cur.ServicePerf.AllocsPerOp), float64(bas.ServicePerf.AllocsPerOp)),
	}
	basScale := make(map[int]float64, len(bas.FleetScale))
	for _, b := range bas.FleetScale {
		basScale[b.VMs] = b.StepsPerSecPerCore
	}
	for _, c := range cur.FleetScale {
		if b := basScale[c.VMs]; b != 0 {
			rows = append(rows, atLeast(fmt.Sprintf("fleet_scale[vms=%d].steps_per_sec_per_core", c.VMs),
				c.StepsPerSecPerCore, b*(1-tolerance)))
		}
	}
	return rows
}

// learnRows gates the learning phase: the fast and reference paths
// choose the same k, which matches the baseline's (when recorded);
// fast_ms may grow at most tolerance; the speedup over the reference
// stays at or above learnSpeedupFloor.
func learnRows(cur, bas *LearnReport) []row {
	c, b := cur.KMeansAuto, bas.KMeansAuto
	ref := float64(c.BaselineChosenK)
	rows := []row{{"kmeans_auto.chosen_k vs reference", float64(c.ChosenK), ref, ref}}
	if b.ChosenK != 0 {
		rows = append(rows, row{"kmeans_auto.chosen_k vs baseline", float64(c.ChosenK), float64(b.ChosenK), float64(b.ChosenK)})
	}
	return append(rows,
		atMost("kmeans_auto.fast_ms", c.FastMs, b.FastMs*(1+tolerance)),
		atLeast("kmeans_auto.speedup", c.Speedup, learnSpeedupFloor))
}

// serveRows gates the decision service: each axis's decisions/s may
// fall at most tolerance below the baseline's (skipped when the
// baseline lacks the axis, and for the multicore axis when the core
// counts differ); binary must beat JSON by serveBinaryFloor and raw
// TCP must beat binary HTTP by serveTCPFloor on the same single-core
// load; sharded accept loops must keep up with one when there are
// cores to shard over.
func serveRows(cur, bas *ServeReport) []row {
	var rows []row
	for _, ax := range []struct {
		name     string
		cur, bas ServeBench
	}{
		{"serve_json", cur.ServeJSON, bas.ServeJSON},
		{"serve_binary", cur.ServeBin, bas.ServeBin},
		{"serve_tcp", cur.ServeTCP, bas.ServeTCP},
		{"serve_tcp_multicore", cur.ServeTCPMulticore, bas.ServeTCPMulticore},
		{"serve_replicated", cur.ServeReplicated, bas.ServeReplicated},
	} {
		if ax.bas.DecisionsPerSec == 0 || ax.name == "serve_tcp_multicore" && ax.cur.Cores != ax.bas.Cores {
			continue
		}
		rows = append(rows, atLeast(ax.name+".decisions_per_sec", ax.cur.DecisionsPerSec, ax.bas.DecisionsPerSec*(1-tolerance)))
	}
	json, bin, tcp := cur.ServeJSON.DecisionsPerSec, cur.ServeBin.DecisionsPerSec, cur.ServeTCP.DecisionsPerSec
	if json > 0 {
		rows = append(rows, atLeast("serve_binary/serve_json", bin/json, serveBinaryFloor))
	}
	if bin > 0 && tcp > 0 {
		rows = append(rows, atLeast("serve_tcp/serve_binary", tcp/bin, serveTCPFloor))
	}
	if cur.ServeTCPMulticore.Cores > 1 {
		rows = append(rows, atLeast("serve_tcp_multicore.decisions_per_sec vs serve_tcp", cur.ServeTCPMulticore.DecisionsPerSec, tcp))
	}
	return rows
}

// scenarioRows gates the claims of every kind the baseline records:
// hit rate and SLO-violation fraction may drift at most tolerance in
// absolute terms, cost at most tolerance relatively (when the baseline
// cost is positive), and a baseline kind the run lacks fails. A
// baseline row without a kind predates the row and is skipped.
func scenarioRows(cur, bas *ScenarioReport) []row {
	have := map[string]ScenarioRow{cur.Baseline.Kind: cur.Baseline}
	for _, s := range cur.Scenarios {
		have[s.Kind] = s
	}
	var rows []row
	for _, b := range append([]ScenarioRow{bas.Baseline}, bas.Scenarios...) {
		if b.Kind == "" {
			continue
		}
		name := "scenarios[" + b.Kind + "]"
		c, ok := have[b.Kind]
		if !ok {
			rows = append(rows, row{name + " present", 0, 1, 1})
			continue
		}
		rows = append(rows,
			row{name + ".hit_rate drift", c.HitRate - b.HitRate, -tolerance, tolerance},
			row{name + ".slo_violation_fraction drift", c.SLOViolationFraction - b.SLOViolationFraction, -tolerance, tolerance})
		if b.CostUSD > 0 {
			rows = append(rows, row{name + ".cost_usd ratio", c.CostUSD / b.CostUSD, 1 - tolerance, 1 + tolerance})
		}
	}
	return rows
}
