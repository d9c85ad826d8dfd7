package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Fleet sizes. fleet-day is sized so one run phase lasts about a second
// on a 2-vCPU machine; the remote fleets are smaller because every
// decision is a loopback round trip. fleet-remote and fleet-tier share
// one size so their difference is the tier hop alone.
const (
	fleetDayVMs    = 20000
	fleetRemoteVMs = 600
)

// subSeeds is how many scenarios a run derives from its seed. Each
// template learns from the learning day of one VM, so one scenario's
// quality figures hinge on a handful of learned repositories; rounds
// cycle through subSeeds scenarios and the run reports their average,
// which keeps the figures of two seeds comparable.
const subSeeds = 16

// subSeed is the seed of a run's i-th scenario.
func subSeed(seed int64, i int) int64 { return rng.Derive(seed, i) }

// Tolerances for comparing a remote fleet with the in-process fleet at
// the same seed and size. The two cannot agree exactly: with
// interference detection on, the shared repository's last-writer-wins
// Put makes outcomes depend on goroutine interleaving (see README.md,
// "Interleaving nondeterminism"). Both sides are averaged over the
// run's scenarios before they are compared.
const (
	hitRatioTolAbs = 0.01
	sloTolRel      = 0.10
	costTolRel     = 0.02
	inProcessRefs  = 2 // in-process reference runs per scenario
)

// genFleet generates the workload's scenario from the seed: all three
// service templates, host interference on, one run day per VM.
func genFleet(seed int64, kind sim.ScenarioKind, vms int) ([]sim.VMSpec, time.Duration, error) {
	start := time.Now()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:          rand.New(rand.NewSource(seed)),
		Kind:         kind,
		VMs:          vms,
		Days:         1,
		Interference: true,
	})
	return specs, time.Since(start), err
}

// learnTemplate runs a template's learning phase the way fleet.Run
// does: the learning day of the spec's VM, tuned through the
// template's shared tuning cache.
func learnTemplate(spec sim.VMSpec, cache *core.SharedTuningCache, workers int) (*core.Repository, error) {
	r := rng.New(spec.Seed)
	prof, err := core.NewProfiler(spec.Service, r)
	if err != nil {
		return nil, err
	}
	tuner, err := fleet.DefaultTuner(spec.Service)
	if err != nil {
		return nil, err
	}
	shared, err := core.NewSharedTuner(cache, spec.Service, tuner)
	if err != nil {
		return nil, err
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     shared,
		Workloads: core.WorkloadsFromTrace(spec.LearnTrace, spec.Mix),
		Rng:       r,
		Workers:   workers,
	})
	return repo, err
}

// fleetConfig is the configuration every fleet workload runs with: the
// paper's full mechanism (interference detection on), one worker per
// CPU, aggregates only.
func fleetConfig(specs []sim.VMSpec, workers int, remote *client.Client) fleet.Config {
	return fleet.Config{
		Specs:                 specs,
		Workers:               workers,
		InterferenceDetection: true,
		DiscardRecords:        true,
		Remote:                remote,
	}
}

// fleetOutcome is one fleet run's end-to-end figures.
type fleetOutcome struct {
	sub          int // scenario index, see subSeed
	setup        time.Duration
	steps        int
	stepsPerS    float64
	latP50us     float64
	latP99us     float64
	slo          float64
	costPerVMDay float64
	hitRatio     float64
	adaptSMean   float64
}

// expectedSteps is the exact step count a fleet run over specs must
// execute: every VM steps once per simulated minute of its trace.
func expectedSteps(specs []sim.VMSpec) []int {
	out := make([]int, len(specs))
	for i, s := range specs {
		out[i] = sim.Steps(s.RunTrace.Duration(), time.Minute)
	}
	return out
}

// outcome checks a fleet result against its specs and extracts the
// end-to-end figures.
func outcome(rc *runCtx, res *fleet.Result, specs []sim.VMSpec, setup time.Duration) (fleetOutcome, error) {
	want := expectedSteps(specs)
	total, episodes := 0, 0
	var adapt time.Duration
	var vmDays float64
	for i, vr := range res.VMResults {
		if vr == nil {
			return fleetOutcome{}, fmt.Errorf("vm %d has no result", i)
		}
		if vr.Steps != want[i] {
			rc.checkf("vm %d stepped %d times, want %d", i, vr.Steps, want[i])
		}
		total += want[i]
		for _, e := range vr.Episodes {
			adapt += e.Duration
		}
		episodes += len(vr.Episodes)
		vmDays += specs[i].RunTrace.Duration().Hours() / 24
	}
	if res.TotalSteps != total {
		rc.checkf("fleet stepped %d times, want %d", res.TotalSteps, total)
	}
	if episodes == 0 {
		return fleetOutcome{}, errors.New("fleet made no adaptations")
	}
	return fleetOutcome{
		setup:        setup,
		steps:        res.TotalSteps,
		stepsPerS:    res.StepsPerSecond(),
		latP50us:     res.StepPhase.P50US,
		latP99us:     res.StepPhase.P99US,
		slo:          res.MeanSLOViolationFraction(),
		costPerVMDay: res.TotalCost() / vmDays,
		hitRatio:     res.HitRate(),
		adaptSMean:   adapt.Seconds() / float64(episodes),
	}, nil
}

// fleetRounds repeats round until the budget is spent and every
// scenario has run at least once; round i runs scenario i%subSeeds,
// and every round sets its stack up afresh.
func fleetRounds(rc *runCtx, round func(sub int) (fleetOutcome, error)) ([]fleetOutcome, error) {
	var outs []fleetOutcome
	start := time.Now()
	for len(outs) < subSeeds || time.Since(start) < rc.budget {
		// Start every round from a collected heap, so the garbage of
		// the round before does not land in this one's timing.
		runtime.GC()
		sub := len(outs) % subSeeds
		o, err := round(sub)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(outs)+1, err)
		}
		o.sub = sub
		outs = append(outs, o)
		rc.attempted += int64(o.steps)
	}
	return outs, nil
}

// scenarioMean is the mean over scenarios of each scenario's median of
// f over its rounds.
func scenarioMean(outs []fleetOutcome, f func(fleetOutcome) float64) float64 {
	per := make([][]float64, subSeeds)
	for _, o := range outs {
		per[o.sub] = append(per[o.sub], f(o))
	}
	sum := 0.0
	for _, xs := range per {
		sum += median(xs)
	}
	return sum / subSeeds
}

// reportFleet sets the end-to-end metrics: timings are medians over
// all rounds, quality figures the mean over scenarios of their
// medians. It also reports how far the quality figures moved between
// rounds of one scenario: that spread is the interleaving
// nondeterminism, shown rather than masked.
func reportFleet(rc *runCtx, outs []fleetOutcome) {
	pick := func(f func(fleetOutcome) float64) []float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return xs
	}
	rc.set("setup_s", median(pick(func(o fleetOutcome) float64 { return o.setup.Seconds() })))
	rc.set("throughput_per_s", median(pick(func(o fleetOutcome) float64 { return o.stepsPerS })))
	what := "decision round trip"
	if rc.workload == "fleet-day" {
		what = "VM run"
	}
	notef("latency: per %s, median over %d rounds: p50 %.1f us, p99 %.1f us (reported, not gated: see README.md)",
		what, len(outs), median(pick(func(o fleetOutcome) float64 { return o.latP50us })), median(pick(func(o fleetOutcome) float64 { return o.latP99us })))
	rc.set("slo_violation_frac", scenarioMean(outs, func(o fleetOutcome) float64 { return o.slo }))
	rc.set("cost_usd_per_vm_day", scenarioMean(outs, func(o fleetOutcome) float64 { return o.costPerVMDay }))
	rc.set("repo_hit_ratio", scenarioMean(outs, func(o fleetOutcome) float64 { return o.hitRatio }))
	rc.set("adapt_s_mean", scenarioMean(outs, func(o fleetOutcome) float64 { return o.adaptSMean }))
	for sub := 0; sub < subSeeds; sub++ {
		var slo, cost []float64
		for _, o := range outs {
			if o.sub == sub {
				slo, cost = append(slo, o.slo), append(cost, o.costPerVMDay)
			}
		}
		notef("finding: interleaving drift, scenario %d, %d same-input rounds (workers=%d, interference detection on): slo %s, cost/vm-day %s",
			sub, len(slo), rc.workers, spread(slo), spread(cost))
	}
}

// spread renders min..max and the range as a share of the median.
func spread(xs []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return fmt.Sprintf("%.6g..%.6g (%.3f%% of median)", lo, hi, 100*(hi-lo)/median(xs))
}

func runFleetDay(rc *runCtx) error {
	outs, err := fleetRounds(rc, func(sub int) (fleetOutcome, error) {
		specs, gen, err := genFleet(subSeed(rc.seed, sub), sim.KindBaseline, fleetDayVMs)
		if err != nil {
			return fleetOutcome{}, err
		}
		res, err := fleet.Run(fleetConfig(specs, rc.workers, nil))
		if err != nil {
			return fleetOutcome{}, err
		}
		return outcome(rc, res, specs, gen+res.LearningTime)
	})
	if err != nil {
		return err
	}
	reportFleet(rc, outs)
	return nil
}

// remoteStack is one fresh serving stack a remote fleet round drives.
type remoteStack struct {
	client *client.Client
	tier   *tier   // the replicated tier, nil for a bare daemon
	daemon *daemon // the bare daemon, nil for a tier
	// rejected reports requests the stack refused or failed.
	rejected func() int64
	close    func() error
}

func startRemoteStack(rc *runCtx, tiered bool) (*remoteStack, error) {
	if tiered {
		t, err := startTier()
		if err != nil {
			return nil, err
		}
		cl, err := remoteClient(client.Config{Addr: t.addr}, rc.workers)
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		return &remoteStack{
			client:   cl,
			tier:     t,
			rejected: func() int64 { return t.front.Stats().Errors },
			close:    func() error { cl.Close(); return t.close() },
		}, nil
	}
	d, err := startDaemon(nil)
	if err != nil {
		return nil, err
	}
	cl, err := remoteClient(client.Config{Addr: d.addr, TCPAddr: d.tcpAddr}, rc.workers)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	return &remoteStack{
		client:   cl,
		daemon:   d,
		rejected: func() int64 { return d.srv.StatsSnapshot().BadRequests },
		close:    func() error { cl.Close(); return d.close() },
	}, nil
}

// runRemoteFleet drives the workload-shift fleet through a fresh
// daemon (or tier) per round and compares it with the in-process fleet
// at the same seed and size.
func runRemoteFleet(rc *runCtx, tiered bool) error {
	var refs []fleetOutcome
	for sub := 0; sub < subSeeds; sub++ {
		for i := 0; i < inProcessRefs; i++ {
			specs, _, err := genFleet(subSeed(rc.seed, sub), sim.KindWorkloadShift, fleetRemoteVMs)
			if err != nil {
				return err
			}
			res, err := fleet.Run(fleetConfig(specs, rc.workers, nil))
			if err != nil {
				return fmt.Errorf("in-process reference: %w", err)
			}
			ref, err := outcome(rc, res, specs, 0)
			if err != nil {
				return fmt.Errorf("in-process reference: %w", err)
			}
			ref.sub = sub
			refs = append(refs, ref)
		}
	}

	outs, err := fleetRounds(rc, func(sub int) (fleetOutcome, error) {
		specs, gen, err := genFleet(subSeed(rc.seed, sub), sim.KindWorkloadShift, fleetRemoteVMs)
		if err != nil {
			return fleetOutcome{}, err
		}
		start := time.Now()
		st, err := startRemoteStack(rc, tiered)
		if err != nil {
			return fleetOutcome{}, err
		}
		stackUp := time.Since(start)
		res, err := fleet.Run(fleetConfig(specs, rc.workers, st.client))
		rejected := st.rejected()
		lat := st.client.RequestLatency()
		if cerr := st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing the stack: %w", cerr)
		}
		if err != nil {
			return fleetOutcome{}, err
		}
		if rejected != 0 {
			rc.failed += rejected
			rc.checkf("the serving stack rejected %d requests", rejected)
		}
		o, err := outcome(rc, res, specs, gen+stackUp+res.LearningTime)
		// A remote fleet's latency is the decision round trip its
		// controllers wait for.
		o.latP50us = float64(lat.Quantile(0.50)) / 1e3
		o.latP99us = float64(lat.Quantile(0.99)) / 1e3
		return o, err
	})
	if err != nil {
		return err
	}
	reportFleet(rc, outs)
	compareWithInProcess(rc, refs)
	return nil
}

// compareWithInProcess checks the remote fleet's quality figures
// against the in-process fleet's over the same scenarios.
func compareWithInProcess(rc *runCtx, refs []fleetOutcome) {
	hit, slo, cost := rc.metrics["repo_hit_ratio"], rc.metrics["slo_violation_frac"], rc.metrics["cost_usd_per_vm_day"]
	refHit := scenarioMean(refs, func(o fleetOutcome) float64 { return o.hitRatio })
	refSLO := scenarioMean(refs, func(o fleetOutcome) float64 { return o.slo })
	refCost := scenarioMean(refs, func(o fleetOutcome) float64 { return o.costPerVMDay })
	notef("check: remote vs in-process, seed %d, %d scenarios of %d VMs: hit %.5f vs %.5f (±%.2f), slo %.5f vs %.5f (±%.0f%%), cost/vm-day %.4f vs %.4f (±%.0f%%)",
		rc.seed, subSeeds, fleetRemoteVMs, hit, refHit, hitRatioTolAbs, slo, refSLO, 100*sloTolRel, cost, refCost, 100*costTolRel)
	if math.Abs(hit-refHit) > hitRatioTolAbs {
		rc.checkf("remote hit ratio %.5f differs from in-process %.5f by more than %.2f", hit, refHit, hitRatioTolAbs)
	}
	if math.Abs(slo-refSLO) > sloTolRel*refSLO {
		rc.checkf("remote SLO-violation fraction %.5f differs from in-process %.5f by more than %.0f%%", slo, refSLO, 100*sloTolRel)
	}
	if math.Abs(cost-refCost) > costTolRel*refCost {
		rc.checkf("remote cost/vm-day %.4f differs from in-process %.4f by more than %.0f%%", cost, refCost, 100*costTolRel)
	}
}

func runFleetRemote(rc *runCtx) error { return runRemoteFleet(rc, false) }

func runFleetTier(rc *runCtx) error { return runRemoteFleet(rc, true) }
