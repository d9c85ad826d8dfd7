package main

// The traced run. It times the calls into each module's public
// functions from the benchmark's own code — wrappers around
// sim.Controller, core.DecisionSource and core.Tuner, and replays of
// the codec, server and registry calls — and adds no tracing inside the
// program. It is separate from the timed runs: the end-to-end figures
// come from untraced runs, and the traced run reports how much slower
// it ran as trace.overhead_frac.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Traced fleet sizes: the per-step and per-call figures do not depend
// on fleet size, and the traced loop runs slower than fleet.Run.
const (
	tracedDayVMs      = 5000
	tracedRemoteVMs   = 300
	maxSpansPerWorker = 100_000
	maxCapturedRows   = 2048 // lookup rows kept per run for the replays
	replayMinTime     = 20 * time.Millisecond
	pingEveryLookups  = 8 // remote traced runs ping ahead of every 8th lookup of a worker
)

// span is one traced call: [start, end) in ns since the tracer's
// epoch, and the span that caused it (parent 0: a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one buffer per worker so recording
// takes no lock, and writes them out when the run ends.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	bufs    [][]span
	dropped atomic.Int64
}

func newTracer(workers int) *tracer {
	return &tracer{epoch: time.Now(), bufs: make([][]span, workers)}
}

func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) id() uint64            { return t.nextID.Add(1) }
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// record keeps s in worker's buffer, or counts it dropped once the
// buffer is full.
func (t *tracer) record(worker int, s span) {
	if len(t.bufs[worker]) >= maxSpansPerWorker {
		t.dropped.Add(1)
		return
	}
	t.bufs[worker] = append(t.bufs[worker], s)
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b)
	}
	return n
}

// write dumps every span as one JSON object per line, in start order.
func (t *tracer) write(path string) error {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish writes the spans under the run's spans directory and reports
// their count.
func (t *tracer) finish(rc *runCtx) error {
	path := filepath.Join(rc.spansDir, fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rc.set("trace.spans", float64(t.count()))
	notef("trace: %d spans written to %s (%d dropped over the %d-per-worker cap)", t.count(), path, t.dropped.Load(), maxSpansPerWorker)
	return nil
}

// capturedRow is one looked-up signature, kept for the replays.
type capturedRow struct {
	template string
	bucket   int
	values   []float64
}

// layerStats accumulates one worker's layer timings.
type layerStats struct {
	steps, stepNs, runNs                int64
	lookups, lookupNs, hits, unforeseen int64
	gets, getNs, puts, putNs            int64
	tunes, tuneNs, pingNs               int64
	lookupLat, pings                    []time.Duration
	plainLat                            []time.Duration // lookups with no ping just ahead of them
	rows                                []capturedRow
}

func (s *layerStats) merge(o *layerStats) {
	s.steps += o.steps
	s.stepNs += o.stepNs
	s.runNs += o.runNs
	s.lookups += o.lookups
	s.lookupNs += o.lookupNs
	s.hits += o.hits
	s.unforeseen += o.unforeseen
	s.gets += o.gets
	s.getNs += o.getNs
	s.puts += o.puts
	s.putNs += o.putNs
	s.tunes += o.tunes
	s.tuneNs += o.tuneNs
	s.pingNs += o.pingNs
	s.lookupLat = append(s.lookupLat, o.lookupLat...)
	s.pings = append(s.pings, o.pings...)
	s.plainLat = append(s.plainLat, o.plainLat...)
	if room := maxCapturedRows - len(s.rows); room > 0 {
		if len(o.rows) < room {
			room = len(o.rows)
		}
		s.rows = append(s.rows, o.rows[:room]...)
	}
}

// vmTrace is one VM's tracing context, shared by its wrappers. Spans of
// calls made inside a controller step hang under that step's span,
// which is recorded only when it has children.
type vmTrace struct {
	tr       *tracer
	worker   int
	st       *layerStats
	template string
	vmSpan   uint64
	stepSpan uint64
	ping     func() error // the decision client's transport ping, nil in-process
}

func (v *vmTrace) child(name string, start, end int64) {
	if v.stepSpan == 0 {
		v.stepSpan = v.tr.id()
	}
	v.tr.record(v.worker, span{ID: v.tr.id(), Parent: v.stepSpan, Name: name, Start: start, End: end})
}

// timedController times every controller step.
type timedController struct {
	inner sim.Controller
	v     *vmTrace
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Step(obs *sim.Observation) (sim.Action, error) {
	v := c.v
	v.stepSpan = 0
	t0 := v.tr.now()
	a, err := c.inner.Step(obs)
	t1 := v.tr.now()
	v.st.steps++
	v.st.stepNs += t1 - t0
	if v.stepSpan != 0 {
		v.tr.record(v.worker, span{ID: v.stepSpan, Parent: v.vmSpan, Name: "core.Controller.Step", Start: t0, End: t1})
	}
	return a, err
}

// timedSource times every decision-plane call.
type timedSource struct {
	inner core.DecisionSource
	v     *vmTrace
}

func (s *timedSource) Events() []metrics.Event { return s.inner.Events() }

func (s *timedSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	v := s.v
	pinged := v.ping != nil && v.st.lookups%pingEveryLookups == 0
	if pinged {
		// A ping on the client's pooled connections, at the moment a
		// lookup is due: the same transport, under the same load, with
		// no decision work behind it.
		t0 := v.tr.now()
		err := v.ping()
		t1 := v.tr.now()
		if err != nil {
			return core.LookupResult{}, fmt.Errorf("ping: %w", err)
		}
		v.st.pingNs += t1 - t0
		v.st.pings = append(v.st.pings, time.Duration(t1-t0))
		v.child("client.Client.Ping", t0, t1)
	}
	t0 := v.tr.now()
	res, err := s.inner.Lookup(sig, bucket)
	t1 := v.tr.now()
	v.st.lookups++
	v.st.lookupNs += t1 - t0
	v.st.lookupLat = append(v.st.lookupLat, time.Duration(t1-t0))
	if !pinged {
		v.st.plainLat = append(v.st.plainLat, time.Duration(t1-t0))
	}
	if res.Hit {
		v.st.hits++
	}
	if res.Unforeseen {
		v.st.unforeseen++
	}
	if len(v.st.rows) < maxCapturedRows {
		v.st.rows = append(v.st.rows, capturedRow{template: v.template, bucket: bucket, values: append([]float64(nil), sig.Values...)})
	}
	v.child("core.DecisionSource.Lookup", t0, t1)
	return res, err
}

func (s *timedSource) Get(class, bucket int) (cloud.Allocation, bool, error) {
	v := s.v
	t0 := v.tr.now()
	a, ok, err := s.inner.Get(class, bucket)
	t1 := v.tr.now()
	v.st.gets++
	v.st.getNs += t1 - t0
	v.child("core.DecisionSource.Get", t0, t1)
	return a, ok, err
}

func (s *timedSource) Put(class, bucket int, alloc cloud.Allocation) error {
	v := s.v
	t0 := v.tr.now()
	err := s.inner.Put(class, bucket, alloc)
	t1 := v.tr.now()
	v.st.puts++
	v.st.putNs += t1 - t0
	v.child("core.DecisionSource.Put", t0, t1)
	return err
}

// timedTuner times every tuner call.
type timedTuner struct {
	inner core.Tuner
	v     *vmTrace
}

func (t *timedTuner) Tune(w services.Workload, interference float64) (cloud.Allocation, error) {
	v := t.v
	t0 := v.tr.now()
	a, err := t.inner.Tune(w, interference)
	t1 := v.tr.now()
	v.st.tunes++
	v.st.tuneNs += t1 - t0
	v.child("core.Tuner.Tune", t0, t1)
	return a, err
}

func (t *timedTuner) Duration() time.Duration { return t.inner.Duration() }

// tracedGroup is one template's shared state in the traced fleet loop.
type tracedGroup struct {
	spec   sim.VMSpec // the template's first VM, which it learns from
	repo   *core.Repository
	cache  *core.SharedTuningCache
	source core.DecisionSource
}

// learnGroups learns every template of specs in parallel, as fleet.Run
// does.
func learnGroups(specs []sim.VMSpec, workers int) (map[string]*tracedGroup, time.Duration, error) {
	groups := map[string]*tracedGroup{}
	var list []*tracedGroup
	for _, s := range specs {
		if _, ok := groups[s.Service.Name()]; !ok {
			g := &tracedGroup{spec: s, cache: core.NewSharedTuningCache()}
			groups[s.Service.Name()] = g
			list = append(list, g)
		}
	}
	inner := workers / len(list)
	if inner < 1 {
		inner = 1
	}
	start := time.Now()
	errs := make([]error, len(list))
	parallel.Do(workers, len(list), func(i int) {
		list[i].repo, errs[i] = learnTemplate(list[i].spec, list[i].cache, inner)
	})
	return groups, time.Since(start), errors.Join(errs...)
}

// runTracedFleet drives specs through controllers built the way
// fleet.Run builds them over the groups' decision sources. With a
// tracer, every controller, decision source and tuner is wrapped for
// timing and ping, when set, round-trips ahead of every
// pingEveryLookups-th lookup; with none, the same loop runs unwrapped,
// as the untraced reference of the tracing overhead.
func runTracedFleet(rc *runCtx, specs []sim.VMSpec, groups map[string]*tracedGroup, tr *tracer, ping func() error) (*layerStats, time.Duration, error) {
	stats := make([]layerStats, rc.workers)
	memos := make([]map[string]*services.PerfMemo, rc.workers)
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].Service.Name() < specs[order[b]].Service.Name() })
	want := expectedSteps(specs)
	errs := make([]error, len(specs))
	start := time.Now()
	parallel.DoWorkers(rc.workers, len(specs), func(worker, idx int) {
		i := order[idx]
		spec := specs[i]
		name := spec.Service.Name()
		g := groups[name]
		var v *vmTrace
		if tr != nil {
			v = &vmTrace{tr: tr, worker: worker, st: &stats[worker], template: name, vmSpan: tr.id(), ping: ping}
		}
		prof, err := core.NewProfiler(spec.Service, rng.New(spec.Seed))
		if err != nil {
			errs[i] = err
			return
		}
		inner, err := fleet.DefaultTuner(spec.Service)
		if err != nil {
			errs[i] = err
			return
		}
		shared, err := core.NewSharedTuner(g.cache, spec.Service, inner)
		if err != nil {
			errs[i] = err
			return
		}
		var tuner core.Tuner = shared
		source := g.source
		if v != nil {
			tuner, source = &timedTuner{inner: shared, v: v}, &timedSource{inner: g.source, v: v}
		}
		ctl, err := core.NewController(core.ControllerConfig{
			Profiler:              prof,
			Tuner:                 tuner,
			Service:               spec.Service,
			InterferenceDetection: true,
			Source:                source,
		})
		if err != nil {
			errs[i] = err
			return
		}
		var stepper sim.Controller = ctl
		if v != nil {
			stepper = &timedController{inner: ctl, v: v}
		}
		if memos[worker] == nil {
			memos[worker] = map[string]*services.PerfMemo{}
		}
		memo := memos[worker][name]
		if memo == nil {
			memo = services.NewPerfMemo(spec.Service)
			memos[worker][name] = memo
		}
		t0 := time.Now()
		res, err := sim.Run(sim.Config{
			Service:        spec.Service,
			Trace:          spec.RunTrace,
			Mix:            spec.Mix,
			MixFn:          spec.MixFn,
			Controller:     stepper,
			Step:           time.Minute,
			Initial:        spec.Service.MaxAllocation(),
			Interference:   spec.Interference,
			DiscardRecords: true,
			PerfMemo:       memo,
		})
		t1 := time.Now()
		stats[worker].runNs += int64(t1.Sub(t0))
		if v != nil {
			tr.record(worker, span{ID: v.vmSpan, Name: "sim.Run", Start: tr.at(t0), End: tr.at(t1)})
		}
		if err != nil {
			errs[i] = fmt.Errorf("vm %d: %w", i, err)
			return
		}
		if res.Steps != want[i] {
			errs[i] = fmt.Errorf("traced vm %d stepped %d times, want %d", i, res.Steps, want[i])
		}
	})
	wall := time.Since(start)
	var all layerStats
	for i := range stats {
		all.merge(&stats[i])
	}
	return &all, wall, errors.Join(errs...)
}

// tracedFleetSetup generates a workload's traced fleet and learns its
// templates, and reports both times.
func tracedFleetSetup(rc *runCtx, kind sim.ScenarioKind, vms int) (specs []sim.VMSpec, groups map[string]*tracedGroup, gen, learn time.Duration, err error) {
	if specs, gen, err = genFleet(rc.seed, kind, vms); err != nil {
		return nil, nil, 0, 0, err
	}
	groups, learn, err = learnGroups(specs, rc.workers)
	return specs, groups, gen, learn, err
}

// untracedReference runs fleet.Run over fresh specs of the same
// scenario and reports its run-phase figures and Go runtime work.
func untracedReference(rc *runCtx, kind sim.ScenarioKind, vms int, remote *client.Client) error {
	specs, _, err := genFleet(rc.seed, kind, vms)
	if err != nil {
		return err
	}
	var res *fleet.Result
	gc, err := measureGC(func() error {
		var err error
		res, err = fleet.Run(fleetConfig(specs, rc.workers, remote))
		return err
	})
	if err != nil {
		return err
	}
	rc.set("fleet.run_s", res.Elapsed.Seconds())
	rc.set("fleet.vm_run_p99_ms", res.StepPhase.P99US/1e3)
	rc.set("go.gc_cycles", float64(gc.cycles))
	rc.set("go.gc_pause_ms", gc.pauseMs)
	rc.set("go.alloc_bytes_per_step", float64(gc.allocBytes)/float64(res.TotalSteps))
	return nil
}

// reportLayers sets the per-layer metrics the traced fleet loop
// measures.
func reportLayers(rc *runCtx, st *layerStats, groups map[string]*tracedGroup) {
	steps := float64(st.steps)
	callNs := st.lookupNs + st.getNs + st.putNs + st.tuneNs + st.pingNs
	rc.set("sim.engine_ns_per_step", float64(st.runNs-st.stepNs)/steps)
	rc.set("core.controller_ns_per_step", float64(st.stepNs-callNs)/steps)
	q := durQuantiles(st.lookupLat, 0.5, 0.99)
	rc.set("core.lookup_us_p50", q[0])
	rc.set("core.lookup_us_p99", q[1])
	rc.set("core.lookups", float64(st.lookups))
	rc.set("core.gets", float64(st.gets))
	rc.set("core.puts", float64(st.puts))
	rc.set("core.lookup_hit_ratio", float64(st.hits)/float64(st.lookups))
	rc.set("core.unforeseen_ratio", float64(st.unforeseen)/float64(st.lookups))
	rc.set("core.tune_calls", float64(st.tunes))
	rc.set("core.tune_us", ratioOrZero(float64(st.tuneNs)/1e3, float64(st.tunes)))
	var hits, total int
	for _, g := range groups {
		hits += g.cache.Hits()
		total += g.cache.Hits() + g.cache.Misses()
	}
	rc.set("core.tuner_cache_hit_ratio", ratioOrZero(float64(hits), float64(total)))
}

// reportAgreement sets the traced per-request time and the sum of its
// layers' self-times, and notes whether they agree within the tracing
// overhead's size: tracing moves the timings by that much, in either
// direction (a busier sender or receiver can wake faster).
func reportAgreement(rc *runCtx, request, layerSum time.Duration, parts string) {
	rc.set("trace.request_us", float64(request)/1e3)
	rc.set("trace.layer_sum_us", float64(layerSum)/1e3)
	diff := math.Abs(float64(layerSum-request)) / float64(request)
	overhead := rc.metrics["trace.overhead_frac"]
	verdict := "within"
	if diff > math.Abs(overhead) {
		verdict = "NOT within"
	}
	notef("trace: %s per request: %s = %.1f us vs %.1f us traced; they differ by %.1f%%, %s the size of the tracing overhead, %+.1f%%",
		rc.workload, parts, float64(layerSum)/1e3, float64(request)/1e3, 100*diff, verdict, 100*overhead)
}

func ratioOrZero(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// zeroLayers reports the layers a workload does not exercise.
func zeroLayers(rc *runCtx, names ...string) {
	for _, n := range names {
		rc.set(n, 0)
	}
}

var (
	clientLayers   = []string{"client.decide_us_p50", "client.decide_us_p99", "client.retries"}
	tierLayers     = []string{"proxy.hop_us", "proxy.front_errors", "replica.decide_us_p50", "replica.failovers"}
	wireLayers     = []string{"wire.encode_ns_per_row", "wire.decode_ns_per_row", "server.inproc_us_per_req", "server.decide_us_per_req", "server.transport_us_per_req", "server.ping_us"}
	openOnlyLayers = []string{"gen.decide_p50_us", "gen.decide_p99_us", "gen.lag_p99_us", "gen.backlog_max", "gen.sent", "gen.failed", "go.alloc_bytes_per_decision"}
	fleetLayers    = []string{"fleet.run_s", "fleet.vm_run_p99_ms", "sim.engine_ns_per_step", "core.controller_ns_per_step", "core.gets", "core.puts", "core.tune_calls", "core.tune_us", "core.tuner_cache_hit_ratio", "go.alloc_bytes_per_step"}
	findingLayers  = []string{"finding.slo_drift_vs_workers1", "finding.cost_drift_vs_workers1"}
)

// driftFinding measures the interleaving nondeterminism: the same
// scenario run with one worker (a fixed interleaving) and with one
// worker per CPU, interference detection on in both.
func driftFinding(rc *runCtx, kind sim.ScenarioKind, vms int) error {
	run := func(workers int) (fleetOutcome, error) {
		specs, _, err := genFleet(rc.seed, kind, vms)
		if err != nil {
			return fleetOutcome{}, err
		}
		res, err := fleet.Run(fleetConfig(specs, workers, nil))
		if err != nil {
			return fleetOutcome{}, err
		}
		return outcome(rc, res, specs, 0)
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	many, err := run(rc.workers)
	if err != nil {
		return err
	}
	slo := math.Abs(many.slo-one.slo) / one.slo
	cost := math.Abs(many.costPerVMDay-one.costPerVMDay) / one.costPerVMDay
	rc.set("finding.slo_drift_vs_workers1", slo)
	rc.set("finding.cost_drift_vs_workers1", cost)
	notef("finding: %s, %d VMs, workers=1 vs workers=%d: slo %.6f vs %.6f (%.3f%%), cost/vm-day %.4f vs %.4f (%.3f%%)",
		kind, vms, rc.workers, one.slo, many.slo, 100*slo, one.costPerVMDay, many.costPerVMDay, 100*cost)
	return nil
}

// timeLoop runs fn over n items repeatedly until replayMinTime has
// passed and returns the mean time per item.
func timeLoop(n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	var elapsed time.Duration
	rounds := 0
	for elapsed < replayMinTime {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		elapsed += time.Since(start)
		rounds++
	}
	return elapsed / time.Duration(rounds*n)
}

// classifyReplay times Repository.Classify on the rows, foreseen and
// unforeseen rows apart.
func classifyReplay(rc *runCtx, rows []capturedRow, repos map[string]*core.Repository) error {
	type call struct {
		repo *core.Repository
		sig  *core.Signature
	}
	var fore, unfore []call
	for _, r := range rows {
		c := call{repos[r.template], &core.Signature{Events: repos[r.template].EventsRef(), Values: r.values}}
		_, _, unf, err := c.repo.Classify(c.sig)
		if err != nil {
			return err
		}
		if unf {
			unfore = append(unfore, c)
		} else {
			fore = append(fore, c)
		}
	}
	timeCalls := func(cs []call) float64 {
		return float64(timeLoop(len(cs), func(i int) { _, _, _, _ = cs[i].repo.Classify(cs[i].sig) }))
	}
	rc.set("core.classify_ns_per_row_foreseen", timeCalls(fore))
	rc.set("core.classify_ns_per_row_unforeseen", timeCalls(unfore))
	return nil
}

// codecReplay is the wire and server replay of captured rows in
// batches of batch rows: the client's request encode and response
// decode, and the daemon's decode → Handle.Lookup per row → encode.
type codecReplay struct {
	reqEnc, respDec time.Duration // client side, per request
	reqDec, respEnc time.Duration // server side codec, per request
	inproc          time.Duration // server decode → lookups → encode, per request
	rowsPerReq      float64
}

func replayCodec(rows []capturedRow, batch int, handles map[string]*core.Handle) (codecReplay, error) {
	// Group rows into requests of one template and bucket each.
	byKey := map[string][]capturedRow{}
	var keys []string
	for _, r := range rows {
		key := fmt.Sprintf("%s/%d", r.template, r.bucket)
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], r)
	}
	var reqs []*wire.Request
	var resps []*wire.Response
	var reqBytes, respBytes [][]byte
	var sig core.Signature
	for _, key := range keys {
		rs := byKey[key]
		for i := 0; i+batch <= len(rs); i += batch {
			req := &wire.Request{}
			req.SetTemplate(rs[i].template)
			req.Bucket = rs[i].bucket
			for _, r := range rs[i : i+batch] {
				req.AppendRow(r.values)
			}
			payload, err := req.AppendBinary(nil)
			if err != nil {
				return codecReplay{}, err
			}
			resp := &wire.Response{}
			out, err := serveInProcess(handles[rs[i].template], req, resp, &sig, nil)
			if err != nil {
				return codecReplay{}, err
			}
			reqs, resps = append(reqs, req), append(resps, resp)
			reqBytes, respBytes = append(reqBytes, payload), append(respBytes, out)
		}
	}
	if len(reqs) == 0 {
		return codecReplay{}, errors.New("no captured rows to replay")
	}
	cr := codecReplay{rowsPerReq: float64(batch)}
	var buf []byte
	var dreq wire.Request
	var dresp wire.Response
	cr.reqEnc = timeLoop(len(reqs), func(i int) { buf, _ = reqs[i].AppendBinary(buf[:0]) })
	cr.reqDec = timeLoop(len(reqs), func(i int) { _ = dreq.DecodeBinary(reqBytes[i]) })
	cr.respEnc = timeLoop(len(resps), func(i int) { buf = resps[i].AppendBinary(buf[:0]) })
	cr.respDec = timeLoop(len(resps), func(i int) { _ = dresp.DecodeBinary(respBytes[i]) })
	var out []byte
	cr.inproc = timeLoop(len(reqs), func(i int) {
		_ = dreq.DecodeBinary(reqBytes[i])
		out, _ = serveInProcess(handles[string(reqs[i].Template)], &dreq, &dresp, &sig, out[:0])
	})
	return cr, nil
}

// serveInProcess is the daemon's decision path over public calls:
// Handle.Lookup per row of a decoded request, then the response encode.
func serveInProcess(h *core.Handle, req *wire.Request, resp *wire.Response, sig *core.Signature, out []byte) ([]byte, error) {
	cur := h.Current()
	resp.Reset()
	resp.Version = cur.Version
	resp.Lookup = true
	sig.Events = cur.Repo.EventsRef()
	for i := 0; i < req.Rows(); i++ {
		sig.Values = req.Row(i)
		res, err := h.Lookup(sig, req.Bucket)
		if err != nil {
			return nil, err
		}
		d := wire.Decision{Class: res.Class, Certainty: res.Certainty, Unforeseen: res.Unforeseen, Hit: res.Hit}
		if res.Hit {
			d.Type, d.Count = res.Allocation.Type.ID(), res.Allocation.Count
		}
		resp.Results = append(resp.Results, d)
	}
	return resp.AppendBinary(out), nil
}

// copyHandles gives every repository an independent copy behind a
// handle, so replays do not touch the counters of the served ones.
func copyHandles(repos map[string]*core.Repository) (map[string]*core.Handle, error) {
	out := map[string]*core.Handle{}
	for name, repo := range repos {
		cp, err := copyRepo(repo)
		if err != nil {
			return nil, err
		}
		if out[name], err = core.NewHandle(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// copyRepo round-trips a repository through its serialized form.
func copyRepo(repo *core.Repository) (*core.Repository, error) {
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return nil, err
	}
	return core.LoadRepository(&buf)
}

func (cr codecReplay) report(rc *runCtx) {
	rc.set("wire.encode_ns_per_row", float64(cr.reqEnc+cr.respEnc)/cr.rowsPerReq)
	rc.set("wire.decode_ns_per_row", float64(cr.reqDec+cr.respDec)/cr.rowsPerReq)
	rc.set("server.inproc_us_per_req", float64(cr.inproc)/1e3)
}

// clientCodec is the client side of one request: encode plus decode.
func (cr codecReplay) clientCodec() time.Duration { return cr.reqEnc + cr.respDec }

// fleetOverheadPairs is how many untraced and traced passes of the
// fleet loop a traced fleet run alternates: on a shared machine the
// speed moves by tens of percent from one second to the next, and
// alternating puts both kinds of pass under the same conditions.
const fleetOverheadPairs = 5

// fleetPass is one run of the fleet loop over a fresh copy of the
// workload: its own scenario generation, learning, decision sources
// and, for a remote workload, serving stack.
type fleetPass struct {
	specs      []sim.VMSpec
	groups     map[string]*tracedGroup
	stack      *remoteStack // nil in-process
	gen, learn time.Duration
	tr         *tracer // nil untraced
	st         *layerStats
	wall       time.Duration
}

func (p *fleetPass) close() error {
	if p.stack == nil {
		return nil
	}
	return p.stack.close()
}

// runPass runs one pass of the fleet loop, traced or not. A traced pass
// of fleet-remote pings the raw-TCP plane ahead of lookups; the tier's
// front offers none, its client reaching it over HTTP. The caller
// closes the pass.
func runPass(rc *runCtx, kind sim.ScenarioKind, vms int, remote, tiered, traced bool) (*fleetPass, error) {
	p := &fleetPass{}
	var err error
	if p.specs, p.groups, p.gen, p.learn, err = tracedFleetSetup(rc, kind, vms); err != nil {
		return nil, err
	}
	var ping func() error
	if remote {
		if p.stack, err = startRemoteStack(rc, tiered); err != nil {
			return nil, err
		}
		err = serveRemote(p.stack.client, p.groups)
		if traced && !tiered {
			ping = p.stack.client.Ping
		}
	} else {
		err = serveLocal(p.groups)
	}
	if traced {
		p.tr = newTracer(rc.workers)
	}
	if err == nil {
		runtime.GC()
		p.st, p.wall, err = runTracedFleet(rc, p.specs, p.groups, p.tr, ping)
	}
	if err != nil {
		return nil, errors.Join(err, p.close())
	}
	return p, nil
}

// alternatePasses runs fleetOverheadPairs untraced and traced passes in
// turn, reports the tracing overhead — the traced passes' wall time
// over the untraced ones' — and returns the last traced pass, open.
func alternatePasses(rc *runCtx, kind sim.ScenarioKind, vms int, remote, tiered bool) (*fleetPass, error) {
	var untraced, traced time.Duration
	var last *fleetPass
	for i := 0; i < fleetOverheadPairs; i++ {
		u, err := runPass(rc, kind, vms, remote, tiered, false)
		if err != nil {
			return nil, err
		}
		untraced += u.wall
		if err := u.close(); err != nil {
			return nil, err
		}
		t, err := runPass(rc, kind, vms, remote, tiered, true)
		if err != nil {
			return nil, err
		}
		traced += t.wall
		if i < fleetOverheadPairs-1 {
			if err := t.close(); err != nil {
				return nil, err
			}
			continue
		}
		last = t
	}
	rc.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	rc.set("sim.scenario_gen_s", last.gen.Seconds())
	rc.set("core.learn_s", last.learn.Seconds())
	rc.attempted = last.st.steps
	return last, nil
}

// serveLocal points every group at its own repository.
func serveLocal(groups map[string]*tracedGroup) error {
	for _, g := range groups {
		var err error
		if g.source, err = core.SourceForRepository(g.repo); err != nil {
			return err
		}
	}
	return nil
}

// serveRemote installs every group's repository on the stack behind cl
// and points the group at it.
func serveRemote(cl *client.Client, groups map[string]*tracedGroup) error {
	for name, g := range groups {
		if _, err := cl.Install(name, g.repo); err != nil {
			return fmt.Errorf("installing %s: %w", name, err)
		}
		var err error
		if g.source, err = cl.Source(name, g.repo.EventsRef()); err != nil {
			return err
		}
	}
	return nil
}

func tracedFleetDay(rc *runCtx) error {
	if err := untracedReference(rc, sim.KindBaseline, tracedDayVMs, nil); err != nil {
		return err
	}
	p, err := alternatePasses(rc, sim.KindBaseline, tracedDayVMs, false, false)
	if err != nil {
		return err
	}
	st := p.st
	repos := map[string]*core.Repository{}
	for name, g := range p.groups {
		repos[name] = g.repo
	}
	reportLayers(rc, st, p.groups)
	if err := classifyReplay(rc, st.rows, repos); err != nil {
		return err
	}
	// An in-process lookup is a classification plus an entry read.
	unf := float64(st.unforeseen) / float64(st.lookups)
	classify := (1-unf)*rc.metrics["core.classify_ns_per_row_foreseen"] + unf*rc.metrics["core.classify_ns_per_row_unforeseen"]
	reportAgreement(rc, time.Duration(st.lookupNs/st.lookups), time.Duration(classify), "classify")
	if err := driftFinding(rc, sim.KindBaseline, tracedDayVMs); err != nil {
		return err
	}
	zeroLayers(rc, clientLayers...)
	zeroLayers(rc, tierLayers...)
	zeroLayers(rc, wireLayers...)
	zeroLayers(rc, openOnlyLayers...)
	return p.tr.finish(rc)
}

// tracedRemote is the traced run of fleet-remote and fleet-tier. Every
// fleet run in it gets a fresh serving stack: fleet.Run for the
// run-phase and runtime figures, then the alternating passes.
func tracedRemote(rc *runCtx, tiered bool) error {
	refStack, err := startRemoteStack(rc, tiered)
	if err != nil {
		return err
	}
	err = untracedReference(rc, sim.KindWorkloadShift, tracedRemoteVMs, refStack.client)
	if cerr := refStack.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p, err := alternatePasses(rc, sim.KindWorkloadShift, tracedRemoteVMs, true, tiered)
	if err != nil {
		return err
	}
	defer p.close()
	st, stack, cl := p.st, p.stack, p.stack.client
	repos := map[string]*core.Repository{}
	for name, g := range p.groups {
		repos[name] = g.repo
	}
	reportLayers(rc, st, p.groups)
	if err := classifyReplay(rc, st.rows, repos); err != nil {
		return err
	}
	handles, err := copyHandles(repos)
	if err != nil {
		return err
	}
	cr, err := replayCodec(st.rows, 1, handles)
	if err != nil {
		return err
	}
	cr.report(rc)

	lat := cl.RequestLatency()
	clientMean := lat.Mean()
	rc.set("client.decide_us_p50", float64(lat.Quantile(0.5))/1e3)
	rc.set("client.decide_us_p99", float64(lat.Quantile(0.99))/1e3)
	rc.set("client.retries", float64(cl.Retries()))
	// The traced per-request time is the decision source's Lookup as
	// the controller sees it. It and the ping are compared by their
	// means below their p99, so a stall of the shared machine that hits
	// a few of the samples weighs on neither side; a lookup right behind
	// a ping, which finds the transport already awake, is left out.
	request := trimmedMean(st.plainLat)
	codec := cr.clientCodec()
	if tiered {
		t := stack.tier
		decide, err := serverDecide(rc, t.replicas)
		if err != nil {
			return err
		}
		regMean, regP50, err := replayRegistry(t.reg, st.rows)
		if err != nil {
			return err
		}
		rc.set("proxy.hop_us", float64(clientMean-regMean)/1e3)
		rc.set("proxy.front_errors", float64(t.front.Stats().Errors))
		rc.set("replica.decide_us_p50", float64(regP50)/1e3)
		rc.set("replica.failovers", float64(t.reg.Failovers()))
		rc.set("server.transport_us_per_req", float64(regMean-decide-codec)/1e3)
		rc.set("server.ping_us", 0)
		// The client↔front hop has no independent measurement: the
		// gap between request and layer sum is the front's share.
		front := t.front.DecideLatency().Mean()
		rc.set("trace.request_us", float64(request)/1e3)
		rc.set("trace.layer_sum_us", float64(codec+front)/1e3)
		notef("trace: fleet-tier per request: client codec %.2f + front %.2f us = %.1f us vs %.1f us traced; the gap is the client-to-front HTTP hop",
			float64(codec)/1e3, float64(front)/1e3, float64(codec+front)/1e3, float64(request)/1e3)
	} else {
		decide, err := serverDecide(rc, []*daemon{stack.daemon})
		if err != nil {
			return err
		}
		ping := trimmedMean(st.pings)
		rc.set("server.transport_us_per_req", float64(request-decide-codec)/1e3)
		rc.set("server.ping_us", float64(ping)/1e3)
		notef("trace: %d pings on the client's pooled connections", len(st.pings))
		reportAgreement(rc, request, codec+decide+ping, fmt.Sprintf("client codec %.2f + server decide %.2f + ping %.2f us",
			float64(codec)/1e3, float64(decide)/1e3, float64(ping)/1e3))
		zeroLayers(rc, tierLayers...)
	}
	if err := driftFinding(rc, sim.KindWorkloadShift, fleetRemoteVMs); err != nil {
		return err
	}
	zeroLayers(rc, openOnlyLayers...)
	return p.tr.finish(rc)
}

// replayRegistry times Registry.Decide on the captured rows, one row
// per request as the fleet sends them, and returns the mean and p50.
func replayRegistry(reg *replica.Registry, rows []capturedRow) (mean, p50 time.Duration, err error) {
	var req wire.Request
	var resp wire.Response
	var lat []time.Duration
	for _, r := range rows {
		req.Reset()
		req.SetTemplate(r.template)
		req.Bucket = r.bucket
		req.AppendRow(r.values)
		t0 := time.Now()
		if err := reg.Decide(true, &req, &resp); err != nil {
			return 0, 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	return meanDur(lat), time.Duration(durQuantiles(lat, 0.5)[0] * 1e3), nil
}

// serverDecide reports the daemons' mean decide time per raw-TCP
// request, as their own histograms recorded it during the traced run.
func serverDecide(rc *runCtx, daemons []*daemon) (time.Duration, error) {
	var n int64
	var sum time.Duration
	for _, d := range daemons {
		dn, dsum, err := d.decideTotals()
		if err != nil {
			return 0, err
		}
		n, sum = n+dn, sum+dsum
	}
	if n == 0 {
		return 0, errors.New("the daemons recorded no raw-TCP decisions")
	}
	mean := sum / time.Duration(n)
	rc.set("server.decide_us_per_req", float64(mean)/1e3)
	return mean, nil
}

// trimmedMean is the mean of the samples at or below their p99.
func trimmedMean(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return meanDur(s[:len(s)-len(s)/100])
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func tracedFleetRemote(rc *runCtx) error { return tracedRemote(rc, false) }

func tracedFleetTier(rc *runCtx) error { return tracedRemote(rc, true) }

func tracedDecideOpen(rc *runCtx) error {
	start := time.Now()
	st, err := setupOpen(rc.seed, rc.workers)
	if err != nil {
		return err
	}
	defer st.daemon.close()
	notef("trace: decide-open setup %.3fs", time.Since(start).Seconds())
	rc.set("sim.scenario_gen_s", st.genTime.Seconds())
	rc.set("core.learn_s", st.learnTime.Seconds())
	phaseTime := time.Duration(openNominalShare * float64(rc.budget))
	or, err := newOpenRun(rc, st, phaseTime)
	if err != nil {
		return err
	}
	defer or.close()

	// Untraced and traced nominal phases alternate, so the tracing
	// overhead compares phases run under the same host conditions; on a
	// shared machine the latency at one rate moves by tens of percent
	// from one second to the next. Untraced phases give the decide_*
	// figures, their validity (generator lag, backlog) and the runtime's
	// work per decision. Traced phases time the client codec on the
	// request path and send pings ahead of requests on the same
	// connections; the daemon's own decide histograms are read around
	// each.
	slice := phaseTime / openOverheadPairs
	var un, trc openTotals
	var gc gcDelta
	var p99s []float64
	tr := newTracer(1)
	for i := 0; i < openOverheadPairs; i++ {
		var ph *phase
		d, err := measureGC(func() error {
			var err error
			ph, err = or.phase(openNominalRate, slice, false)
			return err
		})
		if err != nil {
			return err
		}
		gc.cycles += d.cycles
		gc.pauseMs += d.pauseMs
		gc.allocBytes += d.allocBytes
		p99s = append(p99s, float64(ph.windowP99())/1e3)
		un.add(ph)

		n0, sum0, err := st.daemon.decideTotals()
		if err != nil {
			return err
		}
		if ph, err = or.phase(openNominalRate, slice, true); err != nil {
			return err
		}
		n1, sum1, err := st.daemon.decideTotals()
		if err != nil {
			return err
		}
		trc.add(ph)
		trc.decideN += n1 - n0
		trc.decideSum += sum1 - sum0
		for i, k := range ph.k {
			if k%openPingEvery != 0 {
				continue
			}
			due := tr.at(ph.start.Add(ph.due(k)))
			recv := due + int64(ph.lat[i])
			send := recv - int64(ph.svc[i])
			id := tr.id()
			tr.record(0, span{ID: id, Name: "decide-open.request", Start: due, End: recv})
			tr.record(0, span{ID: tr.id(), Parent: id, Name: "gen.wait_to_send", Start: due, End: send})
			tr.record(0, span{ID: tr.id(), Parent: id, Name: "wire.Stream.round_trip", Start: send, End: recv})
		}
	}
	rc.set("gen.decide_p50_us", durQuantiles(un.lat, 0.5)[0])
	rc.set("gen.decide_p99_us", median(p99s))
	rc.set("gen.lag_p99_us", durQuantiles(un.lag, 0.99)[0])
	rc.set("gen.backlog_max", float64(un.backlogMax))
	rc.set("gen.sent", float64(un.sent))
	rc.set("gen.failed", float64(un.failed))
	rc.set("go.gc_cycles", float64(gc.cycles))
	rc.set("go.gc_pause_ms", gc.pauseMs)
	rc.set("go.alloc_bytes_per_decision", float64(gc.allocBytes)/float64(un.sent*openBatch))
	notef("decide-open: %d untraced phases of %v at %.0f decisions/s, %d requests of %d rows: from due time p50 %.1f us, median per-phase windowed p99 %.1f us; sender lag p99 %.1f us; backlog max %d",
		openOverheadPairs, slice, float64(openNominalRate), len(un.lat), openBatch, rc.metrics["gen.decide_p50_us"], rc.metrics["gen.decide_p99_us"], rc.metrics["gen.lag_p99_us"], un.backlogMax)

	decide := trc.decideSum / time.Duration(trc.decideN)
	rc.set("server.decide_us_per_req", float64(decide)/1e3)
	encode := time.Duration(trc.encodeNs / trc.sent)
	respDecode := time.Duration(trc.decodeNs / int64(len(trc.lat)))
	ping := meanDur(trc.pings)
	repos := map[string]*core.Repository{}
	var rows []capturedRow
	for _, t := range st.templates {
		repos[t.name] = t.ref
	}
	for _, p := range st.payloads {
		for _, v := range p.rows {
			rows = append(rows, capturedRow{template: p.tpl.name, bucket: p.bucket, values: v})
		}
	}
	handles, err := copyHandles(repos)
	if err != nil {
		return err
	}
	cr, err := replayCodec(rows, openBatch, handles)
	if err != nil {
		return err
	}
	cr.report(rc)
	if err := classifyReplay(rc, rows, repos); err != nil {
		return err
	}
	lookupLat, err := replayLookups(rows, handles)
	if err != nil {
		return err
	}
	q := durQuantiles(lookupLat, 0.5, 0.99)
	rc.set("core.lookup_us_p50", q[0])
	rc.set("core.lookup_us_p99", q[1])
	rc.set("core.lookups", float64(trc.answered*openBatch))
	rc.set("core.lookup_hit_ratio", float64(trc.outcome.hits)/float64(trc.outcome.rows))
	rc.set("core.unforeseen_ratio", float64(trc.outcome.unforeseen)/float64(trc.outcome.rows))
	rc.set("server.ping_us", float64(ping)/1e3)
	rc.set("server.transport_us_per_req", float64(meanDur(trc.svc)-decide-encode-respDecode)/1e3)
	rc.set("trace.overhead_frac", float64(meanDur(trc.lat))/float64(meanDur(un.lat))-1)
	// The layer sum is compared on the requests that had a ping ahead
	// of them; their sender lag is their own.
	lag := meanDur(trc.pingedLag)
	reportAgreement(rc, meanDur(trc.pingedLat), lag+encode+ping+decide+respDecode,
		fmt.Sprintf("sender lag %.1f + encode %.1f + ping %.1f + server decide %.1f + decode %.1f us",
			float64(lag)/1e3, float64(encode)/1e3, float64(ping)/1e3, float64(decide)/1e3, float64(respDecode)/1e3))
	zeroLayers(rc, fleetLayers...)
	zeroLayers(rc, clientLayers...)
	zeroLayers(rc, tierLayers...)
	zeroLayers(rc, findingLayers...)
	return tr.finish(rc)
}

// openOverheadPairs is how many untraced and traced nominal phases
// decide-open's traced run alternates.
const openOverheadPairs = 8

// openTotals pools phases of one kind. Phase slices alias buffers the
// next phase reuses, so the samples are copied.
type openTotals struct {
	sent, answered, failed, backlogMax int64
	encodeNs, decodeNs                 int64
	decideN                            int64
	decideSum                          time.Duration
	lat, svc, lag, pings               []time.Duration
	pingedLat, pingedLag               []time.Duration // requests with a ping ahead of them
	outcome                            rowOutcome
}

func (t *openTotals) add(ph *phase) {
	t.sent += ph.sent
	t.answered += ph.answered
	t.failed += ph.failed + ph.mismatched
	t.backlogMax = max(t.backlogMax, ph.backlogMax)
	t.encodeNs += ph.encodeNs
	t.decodeNs += ph.decodeNs
	t.lat = append(t.lat, ph.lat...)
	t.svc = append(t.svc, ph.svc...)
	t.lag = append(t.lag, ph.lag...)
	t.pings = append(t.pings, ph.pings...)
	for i, k := range ph.k {
		if k%openPingEvery == 0 {
			t.pingedLat, t.pingedLag = append(t.pingedLat, ph.lat[i]), append(t.pingedLag, ph.lag[k])
		}
	}
	t.outcome.add(ph.outcome)
}

// replayLookups times Handle.Lookup row by row.
func replayLookups(rows []capturedRow, handles map[string]*core.Handle) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, len(rows))
	var sig core.Signature
	for _, r := range rows {
		h := handles[r.template]
		sig.Events = h.Current().Repo.EventsRef()
		sig.Values = r.values
		t0 := time.Now()
		if _, err := h.Lookup(&sig, r.bucket); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, nil
}
