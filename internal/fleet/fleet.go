// Package fleet is the multi-tenant control plane: it drives many
// logical VMs — each with its own DejaVu runtime controller and
// simulated deployment — concurrently against one shared, sharded
// signature repository per service template. Tuning results learned on
// one VM become instantly reusable by every other VM of the same
// template, which is the paper's cross-deployment "déjà vu" effect
// (§6: an application "can benefit from the experience of other cloud
// tenants as well") realized at fleet scale.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newRng builds a VM- or group-private splitmix64 rand source (seeding
// is one integer write, see internal/rng); sharing one across
// goroutines would race.
func newRng(seed int64) *rand.Rand { return rng.New(seed) }

// Config drives one fleet run.
type Config struct {
	// Specs are the fleet's VMs (from sim.GenerateScenario or built
	// by hand).
	Specs []sim.VMSpec
	// Workers bounds control-plane concurrency: how many VM
	// simulations run at once (default GOMAXPROCS).
	Workers int
	// Step is the per-VM simulation step (default 1 minute).
	Step time.Duration
	// InterferenceDetection enables each controller's Eq. 2 feedback
	// loop; leave false only to reproduce the oblivious baseline.
	InterferenceDetection bool
	// OnDemandProfiling lets controllers profile on SLO violations
	// between periodic rounds.
	OnDemandProfiling bool
	// SkipLearning reuses Repositories when set: keys are service
	// names, values pre-learned repositories (e.g. loaded with
	// core.LoadRepository). Templates without an entry still learn.
	SkipLearning map[string]*core.Repository
	// Remote, when set, drives a live dejavud instead of in-process
	// repositories: each template's learned repository is installed
	// into the daemon under the service name, every controller
	// decision (lookup/get/put) goes over the wire, and the group
	// statistics are read back from the daemon. Learning (and the
	// shared tuning cache) stays local — the daemon serves decisions,
	// not profiling environments.
	Remote *client.Client
	// DiscardRecords drops every VM's per-step records and keeps only
	// the aggregates (see sim.Config.DiscardRecords). The 100k-VM
	// scale benchmarks set it: the step arena would otherwise hold
	// >10 GB of records nobody reads. Aggregated results are
	// bit-identical to a recording run's.
	DiscardRecords bool
}

// GroupStats reports one service template's shared-cache effectiveness.
type GroupStats struct {
	// Service names the template.
	Service string
	// VMs is how many fleet VMs run the template.
	VMs int
	// Classes is the learned workload-class count.
	Classes int
	// RepoHitRate is the shared repository's lookup hit rate over
	// the whole run, all VMs combined.
	RepoHitRate float64
	// RepoHits and RepoMisses are the raw lookup counters.
	RepoHits, RepoMisses int64
	// RepoEntries is the number of cached (class, bucket)
	// allocations at the end of the run.
	RepoEntries int
	// TunerHits and TunerMisses count shared tuning-cache reuse:
	// each hit is a tuning sweep some VM skipped because a peer
	// already ran it.
	TunerHits, TunerMisses int
}

// Result aggregates a fleet run.
type Result struct {
	// VMResults holds each VM's simulation result, indexed like
	// Config.Specs.
	VMResults []*sim.Result
	// Groups holds per-template stats, sorted by service name.
	Groups []GroupStats
	// Bill is the per-tenant billing aggregation.
	Bill *cloud.FleetBill
	// TotalSteps is the number of simulation steps executed across
	// the fleet.
	TotalSteps int
	// Elapsed is the wall-clock time of the concurrent run phase
	// (learning excluded).
	Elapsed time.Duration
	// LearningTime is the wall-clock time of the per-template
	// learning phase.
	LearningTime time.Duration
	// LearnPhase digests the per-template learning durations (one
	// sample per service group) — how unevenly the learning bill is
	// spread across templates.
	LearnPhase obs.Summary
	// StepPhase digests the per-VM run-phase durations (one sample per
	// VM simulation) — the tail here is what bounds the concurrent run
	// phase's wall clock.
	StepPhase obs.Summary
}

// StepsPerSecond is the control-plane throughput: fleet simulation
// steps per wall-clock second.
func (r *Result) StepsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSteps) / r.Elapsed.Seconds()
}

// HitRate is the fleet-wide repository hit rate (all templates,
// weighted by lookup volume).
func (r *Result) HitRate() float64 {
	var hits, total int64
	for _, g := range r.Groups {
		hits += g.RepoHits
		total += g.RepoHits + g.RepoMisses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// TotalCost is the fleet-wide provisioning bill in USD.
func (r *Result) TotalCost() float64 { return r.Bill.Total() }

// MeanSLOViolationFraction averages the per-VM violation fractions.
func (r *Result) MeanSLOViolationFraction() float64 {
	if len(r.VMResults) == 0 {
		return 0
	}
	sum := 0.0
	for _, vr := range r.VMResults {
		sum += vr.SLOViolationFraction
	}
	return sum / float64(len(r.VMResults))
}

// DefaultTuner builds the evaluation tuner for a service template:
// scale-out over large instances for Cassandra and RUBiS, scale-up
// over instance types for SPECweb — the paper's two case studies.
func DefaultTuner(svc services.Service) (core.Tuner, error) {
	switch s := svc.(type) {
	case *services.Cassandra:
		return core.NewScaleOutTuner(s, cloud.Large, s.MinInstances, s.MaxInstances)
	case *services.SPECWeb:
		return core.NewScaleUpTuner(s, s.Instances, []cloud.InstanceType{cloud.Large, cloud.XLarge})
	case *services.RUBiS:
		return core.NewScaleOutTuner(s, cloud.Large, 1, s.MaxInstances)
	default:
		return nil, fmt.Errorf("fleet: no default tuner for service %q", svc.Name())
	}
}

// activeTrace returns the slice of a VM's run trace covered by its
// membership window [JoinAt, LeaveAt), in whole trace samples. A VM
// without a window (both zero) runs its full trace; spot instances
// join late (JoinAt) and preempted ones leave early (LeaveAt), in
// fleet-absolute run time.
func activeTrace(spec sim.VMSpec) (*trace.Trace, error) {
	t := spec.RunTrace
	if spec.JoinAt == 0 && spec.LeaveAt == 0 {
		return t, nil
	}
	from := int(spec.JoinAt / t.Step)
	to := t.Len()
	if spec.LeaveAt > 0 {
		to = int(spec.LeaveAt / t.Step)
	}
	sub, err := t.Slice(from, to)
	if err != nil {
		return nil, fmt.Errorf("fleet: vm %s membership window [%v, %v): %w", spec.Name, spec.JoinAt, spec.LeaveAt, err)
	}
	return sub, nil
}

// group is one service template's shared state.
type group struct {
	service services.Service
	repo    *core.Repository
	source  core.DecisionSource // a handle on repo, or a remote template
	cache   *core.SharedTuningCache
	classes int
	vms     []int // indices into Config.Specs
}

// templateCtx is the worker-local per-template batch state: setup that
// is identical for every VM of a template and safe to reuse across the
// consecutive same-template VMs a worker steps through (the run phase
// iterates VMs in template-major order for exactly this reason).
// Everything in it is result-neutral — the memo verifies its exact
// operating point on every hit, and the tuner prototype is cloned per
// VM — so batching only removes redundant setup work, never sharing
// that could couple VM outcomes.
type templateCtx struct {
	// memo is the shared performance memo. One worker runs its VMs
	// sequentially, so single-goroutine ownership holds; consecutive
	// same-template VMs start with a warm model cache instead of
	// re-solving the template's common operating points.
	memo *services.PerfMemo
	// proto is the template's default tuner, built once per
	// (worker, template) and cloned per VM by struct copy — the clone
	// shares the immutable Candidates slice and privatizes the only
	// mutable field (the trial counter). nil when the default tuner is
	// not a linear search; those VMs build their own.
	proto *core.LinearSearchTuner
}

// workerTemplateCtx returns worker's shared context for the VM's
// template, building it on first use. Sharing is only legal when the
// VM's service value is exactly the template's (hand-built fleets may
// reuse a service name with divergent configs); ineligible VMs get nil
// and fall back to fully private setup.
func workerTemplateCtx(wctx []map[string]*templateCtx, worker int, svc services.Service, g *group) *templateCtx {
	if svc != g.service && !reflect.DeepEqual(svc, g.service) {
		return nil
	}
	m := wctx[worker]
	if m == nil {
		m = make(map[string]*templateCtx, 4)
		wctx[worker] = m
	}
	name := g.service.Name()
	tc, ok := m[name]
	if !ok {
		tc = &templateCtx{memo: services.NewPerfMemo(g.service)}
		if t, err := DefaultTuner(g.service); err == nil {
			if lt, isLinear := t.(*core.LinearSearchTuner); isLinear {
				tc.proto = lt
			}
		}
		m[name] = tc
	}
	return tc
}

// Run executes the fleet: learn once per service template, then drive
// every VM's controller concurrently over the shared repositories.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("fleet: no VMs")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	for i, spec := range cfg.Specs {
		if spec.Service == nil || spec.RunTrace == nil {
			return nil, fmt.Errorf("fleet: vm %d (%s) needs Service and RunTrace", i, spec.Name)
		}
	}

	// Group VMs by service template; each group shares one
	// repository and one tuning cache.
	groups := make(map[string]*group)
	for i, spec := range cfg.Specs {
		name := spec.Service.Name()
		g, ok := groups[name]
		if !ok {
			g = &group{service: spec.Service, cache: core.NewSharedTuningCache()}
			groups[name] = g
		}
		g.vms = append(g.vms, i)
	}

	// Learning phase: one clustering + tuning pass per template (the
	// fleet-wide amortization: N VMs, one learning bill). Groups
	// learn in parallel on the shared pool, each using its first VM's
	// learning-day trace; the per-group clustering fan-out gets an
	// even share of the workers so templates × restarts × candidate-k
	// together stay bounded by cfg.Workers.
	learnStart := time.Now()
	groupList := make([]*group, 0, len(groups))
	for _, g := range groups {
		groupList = append(groupList, g)
	}
	sort.Slice(groupList, func(i, j int) bool {
		return groupList[i].service.Name() < groupList[j].service.Name()
	})
	innerWorkers := cfg.Workers / len(groupList)
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	// Per-group and per-VM phase timing: one histogram sample per unit
	// of parallel work, never per step — per-step recording would tax
	// the fleet's multi-million-steps/s control-plane throughput.
	var learnDur, stepDur obs.Histogram
	learnErrs := make([]error, len(groupList))
	parallel.Do(cfg.Workers, len(groupList), func(i int) {
		groupStart := time.Now()
		learnErrs[i] = learnGroup(cfg, groupList[i], innerWorkers)
		learnDur.Record(time.Since(groupStart))
	})
	if err := errors.Join(learnErrs...); err != nil {
		return nil, err
	}

	// Every VM of a template decides through one shared source. In
	// process it is a handle on the group's repository. Remote mode
	// publishes each template's learning result into the daemon and
	// routes every runtime decision through the client library; the
	// install is part of the learning bill — it is the fleet-wide
	// "share what you learned" step.
	for _, g := range groupList {
		var err error
		if cfg.Remote == nil {
			if g.source, err = core.NewHandle(g.repo); err != nil {
				return nil, err
			}
			continue
		}
		name := g.service.Name()
		if _, err := cfg.Remote.Install(name, g.repo); err != nil {
			return nil, fmt.Errorf("fleet: installing template %s: %w", name, err)
		}
		if g.source, err = cfg.Remote.Source(name, g.repo.EventsRef()); err != nil {
			return nil, fmt.Errorf("fleet: sourcing template %s: %w", name, err)
		}
	}
	learningTime := time.Since(learnStart)

	// Run phase: a worker pool drains the VM queue. Only the
	// repository (sharded, atomic counters) and the tuning cache
	// (mutex) are shared; profiler, tuner, and controller are
	// per-VM.
	res := &Result{
		VMResults: make([]*sim.Result, len(cfg.Specs)),
		Bill:      cloud.NewFleetBill(),
	}

	// Zero-copy step arena: each VM's step count is known up front
	// from its active trace window, so the arena pre-sizes an even
	// per-worker share of the whole fleet. Each worker fills slots
	// from its own shard, so the hot loop never contends on a global
	// bump pointer; VMs that leave mid-run drain their slot without
	// the arena ever compacting or reusing it (see stepArena), so
	// records held by live VMs and by the aggregation below stay
	// valid under churn. Discarding runs skip the arena entirely.
	active := make([]*trace.Trace, len(cfg.Specs))
	total := 0
	for i, spec := range cfg.Specs {
		at, err := activeTrace(spec)
		if err != nil {
			return nil, err
		}
		active[i] = at
		total += sim.Steps(at.Duration(), cfg.Step)
	}
	workers := cfg.Workers
	if workers > len(cfg.Specs) {
		workers = len(cfg.Specs)
	}
	if cfg.DiscardRecords {
		// No records, no slabs: an eager arena at 100k VMs would
		// allocate the >10 GB of record memory DiscardRecords exists
		// to avoid.
		total = 0
	}
	arena := newStepArena(total, workers)

	// Template-major VM order: workers claim consecutive indices, so
	// sorting the fleet by service name (stably — spec order preserved
	// within a template) makes each worker step through runs of
	// same-template VMs and amortize per-template setup through its
	// templateCtx. Per-VM results are interleaving-invariant (the
	// equivalence tests pin Workers=1 vs N byte-identical), so the
	// permutation changes scheduling only, never output.
	order := make([]int, len(cfg.Specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cfg.Specs[order[a]].Service.Name() < cfg.Specs[order[b]].Service.Name()
	})
	wctx := make([]map[string]*templateCtx, workers)

	runErrs := make([]error, len(cfg.Specs))
	runStart := time.Now()
	parallel.DoWorkers(workers, len(cfg.Specs), func(worker, idx int) {
		i := order[idx]
		spec := &cfg.Specs[i]
		g := groups[spec.Service.Name()]
		var records []sim.StepRecord
		if !cfg.DiscardRecords {
			records = arena.acquire(worker, sim.Steps(active[i].Duration(), cfg.Step))
		}
		tc := workerTemplateCtx(wctx, worker, spec.Service, g)
		vmStart := time.Now()
		vr, err := runVM(cfg, *spec, active[i], g, tc, records)
		stepDur.Record(time.Since(vmStart))
		if err != nil {
			runErrs[i] = fmt.Errorf("fleet: vm %d (%s): %w", i, spec.Name, err)
			return
		}
		if spec.LeaveAt > 0 && !cfg.DiscardRecords {
			// Preempted: the VM has left the fleet; drain its slot.
			arena.release(worker)
		}
		res.VMResults[i] = vr
		res.Bill.Post(cloud.TenantUsage{
			Tenant:        spec.Name,
			Service:       spec.Service.Name(),
			Cost:          vr.TotalCost,
			InstanceHours: vr.MeanAllocatedInstances() * active[i].Duration().Hours(),
			Duration:      active[i].Duration(),
		})
	})
	if err := errors.Join(runErrs...); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(runStart)
	res.LearningTime = learningTime
	res.LearnPhase = learnDur.Snapshot().Summary()
	res.StepPhase = stepDur.Snapshot().Summary()

	for _, vr := range res.VMResults {
		res.TotalSteps += vr.Steps
	}
	for name, g := range groups {
		gs := GroupStats{
			Service:     name,
			VMs:         len(g.vms),
			Classes:     g.classes,
			TunerHits:   g.cache.Hits(),
			TunerMisses: g.cache.Misses(),
		}
		if cfg.Remote != nil {
			// The daemon owns the serving counters in remote mode.
			st, err := cfg.Remote.Stats(name)
			if err != nil {
				return nil, fmt.Errorf("fleet: stats for template %s: %w", name, err)
			}
			gs.RepoHits, gs.RepoMisses = st.Hits, st.Misses
			gs.RepoHitRate = st.HitRate
			gs.RepoEntries = st.Entries
		} else {
			hits, misses := g.repo.LookupCounts()
			gs.RepoHits, gs.RepoMisses = hits, misses
			gs.RepoHitRate = g.repo.HitRate()
			gs.RepoEntries = g.repo.Len()
		}
		res.Groups = append(res.Groups, gs)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Service < res.Groups[j].Service })
	return res, nil
}

// learnGroup runs (or skips) the learning phase for one template.
// workers bounds the group's clustering fan-out inside core.Learn.
func learnGroup(cfg Config, g *group, workers int) error {
	if repo, ok := cfg.SkipLearning[g.service.Name()]; ok && repo != nil {
		g.repo = repo
		g.classes = repo.Classes()
		return nil
	}
	first := cfg.Specs[g.vms[0]]
	if first.LearnTrace == nil {
		return fmt.Errorf("fleet: service %s needs a LearnTrace on its first VM", g.service.Name())
	}
	rng := newRng(first.Seed)
	prof, err := core.NewProfiler(g.service, rng)
	if err != nil {
		return fmt.Errorf("fleet: service %s: %w", g.service.Name(), err)
	}
	tuner, err := DefaultTuner(g.service)
	if err != nil {
		return err
	}
	// Learning tunes through the shared cache too, so the runtime
	// misses of every VM can reuse the learning-phase sweeps.
	shared, err := core.NewSharedTuner(g.cache, g.service, tuner)
	if err != nil {
		return err
	}
	repo, report, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     shared,
		Workloads: core.WorkloadsFromTrace(first.LearnTrace, first.Mix),
		Rng:       rng,
		Workers:   workers,
	})
	if err != nil {
		return fmt.Errorf("fleet: learning %s: %w", g.service.Name(), err)
	}
	g.repo = repo
	g.classes = report.Classes
	return nil
}

// runVM simulates one VM against its group's shared repository,
// filling step records into the caller-provided arena slice. runTrace
// is the VM's active trace window; when the VM joined mid-run its
// time-indexed schedules (interference, mix) are shifted so they keep
// reading fleet-absolute time. tc, when non-nil, is the worker's
// per-template batch state (warm perf memo, tuner prototype) — always
// result-neutral, see templateCtx.
func runVM(cfg Config, spec sim.VMSpec, runTrace *trace.Trace, g *group, tc *templateCtx, records []sim.StepRecord) (*sim.Result, error) {
	rng := newRng(spec.Seed)
	prof, err := core.NewProfiler(spec.Service, rng)
	if err != nil {
		return nil, err
	}
	var inner core.Tuner
	if tc != nil && tc.proto != nil {
		t := *tc.proto // clone: shares Candidates, privatizes the trial counter
		inner = &t
	} else if inner, err = DefaultTuner(spec.Service); err != nil {
		return nil, err
	}
	tuner, err := core.NewSharedTuner(g.cache, spec.Service, inner)
	if err != nil {
		return nil, err
	}
	ctl, err := core.NewController(core.ControllerConfig{
		Source:                g.source,
		Profiler:              prof,
		Tuner:                 tuner,
		Service:               spec.Service,
		InterferenceDetection: cfg.InterferenceDetection,
		OnDemandProfiling:     cfg.OnDemandProfiling,
	})
	if err != nil {
		return nil, err
	}
	interference := spec.Interference
	mixFn := spec.MixFn
	if off := spec.JoinAt; off > 0 {
		if inner := interference; inner != nil {
			interference = func(now time.Duration) float64 { return inner(now + off) }
		}
		if inner := mixFn; inner != nil {
			mixFn = func(now time.Duration) services.Mix { return inner(now + off) }
		}
	}
	simCfg := sim.Config{
		Service:        spec.Service,
		Trace:          runTrace,
		Mix:            spec.Mix,
		MixFn:          mixFn,
		Controller:     ctl,
		Step:           cfg.Step,
		Initial:        spec.Service.MaxAllocation(),
		Interference:   interference,
		Records:        records,
		DiscardRecords: cfg.DiscardRecords,
	}
	if tc != nil {
		simCfg.PerfMemo = tc.memo
	}
	return sim.Run(simCfg)
}
