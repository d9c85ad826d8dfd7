// Command dejavu-bench measures four benchmark suites, writes each as
// JSON, and gates each against a committed baseline:
//
//	go run ./cmd/dejavu-bench -out BENCH_fleet.json                  # run phase
//	go run ./cmd/dejavu-bench -learn-out BENCH_learn.json            # learning phase
//	go run ./cmd/dejavu-bench -serve-out BENCH_serve.json            # decision service
//	go run ./cmd/dejavu-bench -scenarios-out BENCH_scenarios.json    # scenario claims
//
// The matching -check, -learn-check, -serve-check and -scenarios-check
// flags name a baseline. Each suite's measurement and baseline become
// a table of named rows, a value and its allowed interval (gate.go);
// the run fails (exit 1) listing every row outside its interval, and
// otherwise prints every row. See docs/BENCHMARKS.md for the rows.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/proxy"
	"repro/internal/queueing"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Bench is one recorded benchmark.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// FleetBench is the headline fleet control-plane measurement.
type FleetBench struct {
	VMs         int     `json:"vms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	RepoHitPct  float64 `json:"repo_hit_pct"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// LearnPhase and StepPhase digest the last run's per-template
	// learning and per-VM simulation durations (fleet.Result timing
	// histograms).
	LearnPhase obs.Summary `json:"learn_phase"`
	StepPhase  obs.Summary `json:"step_phase"`
}

// FleetScaleBench is one fleet scale-out row: a single timed run at
// 10k–100k VMs on all cores with step records discarded (the vms=100
// headline row keeps testing.Benchmark and full recording). The gated
// quantity is StepsPerSecPerCore — throughput normalized by the cores
// the run actually had — so the committed baseline transfers between
// runner classes with different core counts.
type FleetScaleBench struct {
	VMs                int     `json:"vms"`
	Workers            int     `json:"workers"`
	Cores              int     `json:"cores"`
	Seconds            float64 `json:"seconds"`
	StepsPerSec        float64 `json:"steps_per_sec"`
	StepsPerSecPerCore float64 `json:"steps_per_sec_per_core"`
	RepoHitPct         float64 `json:"repo_hit_pct"`
	DiscardRecords     bool    `json:"discard_records"`
}

// Report is the BENCH_fleet.json schema.
type Report struct {
	GoVersion           string            `json:"go_version"`
	GOMAXPROCS          int               `json:"gomaxprocs"`
	Fleet               FleetBench        `json:"fleet"`
	FleetScale          []FleetScaleBench `json:"fleet_scale,omitempty"`
	SignatureCollection Bench             `json:"signature_collection"`
	ServicePerf         Bench             `json:"service_perf"`
	MVASolve            Bench             `json:"mva_solve"`
	MVAMemoized         Bench             `json:"mva_memoized"`
}

// LearnBench is the learning-phase measurement: one KMeansAuto sweep
// over a fleet-scale synthetic signature set at a pinned seed, timed
// on the fast engine and on the preserved pre-optimization reference
// path (ml.KMeansAutoReference).
type LearnBench struct {
	N               int     `json:"n"`
	Dims            int     `json:"dims"`
	MinK            int     `json:"min_k"`
	MaxK            int     `json:"max_k"`
	Restarts        int     `json:"restarts"`
	Seed            int64   `json:"seed"`
	FastMs          float64 `json:"fast_ms"`
	BaselineMs      float64 `json:"baseline_ms"`
	Speedup         float64 `json:"speedup"`
	ChosenK         int     `json:"chosen_k"`
	BaselineChosenK int     `json:"baseline_chosen_k"`
}

// LearnReport is the BENCH_learn.json schema.
type LearnReport struct {
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	KMeansAuto LearnBench `json:"kmeans_auto"`
}

// ServeBench is one decision-service measurement: concurrent clients
// hammering batched lookups at a dejavud server over loopback —
// HTTP in one wire encoding, or the raw-TCP decision plane.
type ServeBench struct {
	Encoding        string  `json:"encoding"`
	Transport       string  `json:"transport"`
	Clients         int     `json:"clients"`
	Batch           int     `json:"batch"`
	Requests        int     `json:"requests"`
	Pipeline        int     `json:"pipeline,omitempty"`
	Replicas        int     `json:"replicas,omitempty"`
	Cores           int     `json:"cores"`
	Seconds         float64 `json:"seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	HitPct          float64 `json:"hit_pct"`
}

// ServeReport is the BENCH_serve.json schema: the same loopback load
// measured once per wire encoding over HTTP, once over the raw-TCP
// stream transport at one core, and once over TCP with all cores
// (sharded accept loops, GOMAXPROCS = NumCPU). The binary/JSON and
// TCP/binary-HTTP decisions-per-sec ratios are CI-gated (serveRows).
type ServeReport struct {
	GoVersion         string     `json:"go_version"`
	GOMAXPROCS        int        `json:"gomaxprocs"`
	ServeJSON         ServeBench `json:"serve_json"`
	ServeBin          ServeBench `json:"serve_binary"`
	ServeTCP          ServeBench `json:"serve_tcp"`
	ServeTCPMulticore ServeBench `json:"serve_tcp_multicore"`
	ServeReplicated   ServeBench `json:"serve_replicated"`
}

// The serve benchmark's load per axis: serveClients concurrent workers
// issuing serveRequests batched lookups of serveBatch foreseen
// signatures each. Every axis records the shape it ran.
const (
	serveClients  = 8
	serveBatch    = 16
	serveRequests = 8000
)

// benchServe learns a small repository, serves it through the real
// internal/server stack on loopback, and drives serveClients concurrent
// connections issuing serveRequests batched lookups through the
// internal/client library — once per wire encoding over HTTP, once
// over the raw-TCP stream transport, all three pinned to one core so
// the committed baseline is scheduling-stable; then once more over
// TCP with GOMAXPROCS = NumCPU and one sharded accept loop per core.
// The decision path's 0 allocs/op is pinned separately by the server
// and client zero-alloc tests; this measures end-to-end serving
// throughput and tail latency, the codec tax separating the two
// encodings, and the HTTP framing tax the stream transport deletes.
func benchServe() (*ServeReport, error) {
	rep := &ServeReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	svc := services.NewCassandra()
	learnRng := rand.New(rand.NewSource(17))
	prof, err := core.NewProfiler(svc, learnRng)
	if err != nil {
		return nil, err
	}
	tuner, err := fleet.DefaultTuner(svc)
	if err != nil {
		return nil, err
	}
	var workloads []services.Workload
	for c := 100.0; c <= 460; c += 30 {
		workloads = append(workloads, services.Workload{Clients: c, Mix: svc.DefaultMix()})
	}
	repo, _, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     tuner,
		Workloads: workloads,
		Rng:       learnRng,
	})
	if err != nil {
		return nil, err
	}
	handle, err := core.NewHandle(repo)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Handle: handle})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	// Raw-TCP planes on the same server: one accept loop for the
	// single-core rows, one accept loop per core for the multi-core
	// row.
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcpOne := server.NewTCP(srv, server.TCPConfig{Accepters: 1})
	go func() { _ = tcpOne.Serve(tcpLn) }()
	defer tcpOne.Close()
	cores := runtime.NumCPU()
	tcpMultiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcpMulti := server.NewTCP(srv, server.TCPConfig{Accepters: cores})
	go func() { _ = tcpMulti.Serve(tcpMultiLn) }()
	defer tcpMulti.Close()

	// One foreseen signature, batched: the steady-state hit path.
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: svc.DefaultMix()}, repo.EventsRef())
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()

	// Single-core rows: client, server, and codec all share one core,
	// so the committed numbers compare across machines with different
	// core counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if rep.ServeJSON, err = benchServeEncoding(addr, sig.Values, wire.EncodingJSON); err != nil {
		return nil, err
	}
	if rep.ServeBin, err = benchServeEncoding(addr, sig.Values, wire.EncodingBinary); err != nil {
		return nil, err
	}
	if rep.ServeTCP, err = benchServeTCP(tcpLn.Addr().String(), sig.Values); err != nil {
		return nil, err
	}
	// Multi-core rows: all cores — sharded accept loops, then the
	// replicated decision tier.
	runtime.GOMAXPROCS(cores)
	if rep.ServeTCPMulticore, err = benchServeTCP(tcpMultiLn.Addr().String(), sig.Values); err != nil {
		return nil, err
	}
	if rep.ServeReplicated, err = benchServeReplicated(repo, sig.Values); err != nil {
		return nil, err
	}

	for _, sb := range []*ServeBench{&rep.ServeJSON, &rep.ServeBin, &rep.ServeTCP, &rep.ServeTCPMulticore, &rep.ServeReplicated} {
		sb.HitPct = 100 * repo.HitRate()
	}
	return rep, nil
}

// serveReplicas is the tier size the serve_replicated row measures:
// the decision front load-balancing over this many healthy dejavud
// replicas on loopback, decisions riding each replica's raw-TCP
// plane. The row prices the front's relay hop and the registry's
// routing against the direct rows above it.
const serveReplicas = 3

// benchServeReplicated stands up a replicated tier — serveReplicas
// empty dejavud instances, a registry that installs the learned
// repository on all of them with publish-then-flip consistency, and a
// decision front over the registry — then drives the same batched
// binary-HTTP load at the front that benchServeEncoding drives at a
// bare daemon.
func benchServeReplicated(repo *core.Repository, vals []float64) (ServeBench, error) {
	sb := ServeBench{Encoding: "binary", Transport: "replicated", Clients: serveClients, Batch: serveBatch,
		Requests: serveRequests, Replicas: serveReplicas, Cores: runtime.GOMAXPROCS(0)}

	specs := make([]replica.Spec, 0, serveReplicas)
	for i := 0; i < serveReplicas; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			return sb, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return sb, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return sb, err
		}
		tcpSrv := server.NewTCP(srv, server.TCPConfig{})
		go func() { _ = tcpSrv.Serve(tcpLn) }()
		defer tcpSrv.Close()
		specs = append(specs, replica.Spec{
			Name:    fmt.Sprintf("bench-r%d", i),
			Addr:    ln.Addr().String(),
			TCPAddr: tcpLn.Addr().String(),
		})
	}

	reg, err := replica.New(replica.Config{Replicas: specs, Encoding: wire.EncodingBinary})
	if err != nil {
		return sb, err
	}
	defer reg.Close()
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return sb, err
	}
	if _, err := reg.InstallSerialized(server.DefaultTemplate, buf.Bytes()); err != nil {
		return sb, err
	}

	front, err := proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: reg})
	if err != nil {
		return sb, err
	}
	defer front.Close()
	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sb, err
	}
	fhs := &http.Server{Handler: front.Handler()}
	go func() { _ = fhs.Serve(frontLn) }()
	defer fhs.Close()

	cl, err := client.New(client.Config{Addr: frontLn.Addr().String(), Encoding: wire.EncodingBinary, MaxIdleConns: serveClients})
	if err != nil {
		return sb, err
	}
	return driveServeLoad(cl, sb, vals)
}

// benchServeEncoding drives one HTTP encoding's load: serveClients
// workers over one pooled client, best of three passes (loopback
// throughput on a small shared runner is noisy, and the gate compares
// against the best the machine can do).
func benchServeEncoding(addr string, vals []float64, enc wire.Encoding) (ServeBench, error) {
	name := "json"
	if enc == wire.EncodingBinary {
		name = "binary"
	}
	sb := ServeBench{Encoding: name, Transport: "http", Clients: serveClients, Batch: serveBatch,
		Requests: serveRequests, Cores: runtime.GOMAXPROCS(0)}
	cl, err := client.New(client.Config{Addr: addr, Encoding: enc, MaxIdleConns: serveClients})
	if err != nil {
		return sb, err
	}
	return driveServeLoad(cl, sb, vals)
}

// tcpPipelineDepth is the per-connection request window the TCP axis
// keeps in flight. Pipelining is the stream protocol's own feature —
// request ids exist so a caller never waits a full round trip per
// batch — and it is what separates the transport from HTTP/1.1, which
// serializes request/response pairs per connection. The HTTP rows
// therefore measure sync round trips; this row measures the
// transport's sustained form.
const tcpPipelineDepth = 8

// benchServeTCP drives the same batched-lookup load over the raw-TCP
// stream transport: binary payloads framed in stream envelopes on
// persistent connections, serveClients connections each keeping
// tcpPipelineDepth requests in flight. Latency is measured per
// envelope from write to its response, so the quantiles include the
// queueing a full window implies.
func benchServeTCP(tcpAddr string, vals []float64) (ServeBench, error) {
	sb := ServeBench{Encoding: "binary", Transport: "tcp", Clients: serveClients, Batch: serveBatch,
		Requests: serveRequests, Pipeline: tcpPipelineDepth, Cores: runtime.GOMAXPROCS(0)}

	var req wire.Request
	for r := 0; r < serveBatch; r++ {
		req.AppendRow(vals)
	}
	payload, err := req.AppendBinary(nil)
	if err != nil {
		return sb, err
	}

	conns := make([]net.Conn, serveClients)
	streams := make([]*wire.Stream, serveClients)
	defer func() {
		for _, nc := range conns {
			if nc != nil {
				nc.Close()
			}
		}
	}()
	for i := range conns {
		nc, err := net.DialTimeout("tcp", tcpAddr, 5*time.Second)
		if err != nil {
			return sb, err
		}
		conns[i] = nc
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		st := wire.NewStream(nc)
		if err := st.WriteClientHello(wire.EncodingBinary); err != nil {
			return sb, err
		}
		if _, err := st.ReadServerHello(); err != nil {
			return sb, err
		}
		streams[i] = st
	}

	err = bestOfThree(&sb, func(lat [][]time.Duration, errs []error) {
		deadline := time.Now().Add(time.Minute)
		var wg sync.WaitGroup
		for w := 0; w < serveClients; w++ {
			n := serveRequests / serveClients
			if w < serveRequests%serveClients {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				conns[w].SetDeadline(deadline)
				errs[w] = pipelineLookups(streams[w], payload, n, &lat[w])
			}(w, n)
		}
		wg.Wait()
	})
	return sb, err
}

// pipelineLookups sends n lookup envelopes over st, keeping
// tcpPipelineDepth of them in flight, and appends each one's latency
// from write to response to lat.
func pipelineLookups(st *wire.Stream, payload []byte, n int, lat *[]time.Duration) error {
	var resp wire.Response
	var sendTimes [tcpPipelineDepth]time.Time
	sent, inflight := 0, 0
	for done := 0; done < n; done++ {
		for inflight < tcpPipelineDepth && sent < n {
			sendTimes[sent%tcpPipelineDepth] = time.Now()
			if err := st.WriteEnvelope(uint32(sent), wire.StreamFlagLookup, payload); err != nil {
				return err
			}
			sent++
			inflight++
		}
		id, flags, body, err := st.ReadEnvelope(8 << 20)
		if err != nil {
			return err
		}
		if id != uint32(done) {
			return fmt.Errorf("response id %d, want %d", id, done)
		}
		if flags&wire.StreamFlagError != 0 {
			return fmt.Errorf("daemon error: %s", body)
		}
		if err := resp.Decode(wire.EncodingBinary, body); err != nil {
			return err
		}
		*lat = append(*lat, time.Since(sendTimes[done%tcpPipelineDepth]))
		inflight--
	}
	return nil
}

// bestOfThree runs three passes of a load and keeps the fastest in sb
// (loopback throughput on a small shared runner is noisy, and the gate
// compares against the best the machine can do). pass runs one pass of
// sb.Clients workers, appending each worker's request latencies to
// lat[worker] and recording its error in errs[worker].
func bestOfThree(sb *ServeBench, pass func(lat [][]time.Duration, errs []error)) error {
	for trial := 0; trial < 3; trial++ {
		lat := make([][]time.Duration, sb.Clients)
		errs := make([]error, sb.Clients)
		start := time.Now()
		pass(lat, errs)
		elapsed := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		dps := float64(sb.Requests*sb.Batch) / elapsed.Seconds()
		if dps <= sb.DecisionsPerSec {
			continue
		}
		var all []time.Duration
		for _, l := range lat {
			all = append(all, l...)
		}
		slices.Sort(all)
		quantile := func(q float64) float64 {
			return float64(all[int(q*float64(len(all)-1))].Microseconds()) / 1000
		}
		sb.Seconds = elapsed.Seconds()
		sb.DecisionsPerSec = dps
		sb.P50Ms = quantile(0.50)
		sb.P99Ms = quantile(0.99)
	}
	return nil
}

// driveServeLoad issues the batched-lookup load through cl and keeps
// the best of three passes. It closes cl.
func driveServeLoad(cl *client.Client, sb ServeBench, vals []float64) (ServeBench, error) {
	defer cl.Close()

	// Per-worker wire scratch: requests are identical, decode state is
	// private.
	reqs := make([]*wire.Request, sb.Clients)
	resps := make([]*wire.Response, sb.Clients)
	for i := range reqs {
		reqs[i] = &wire.Request{}
		for r := 0; r < sb.Batch; r++ {
			reqs[i].AppendRow(vals)
		}
		resps[i] = &wire.Response{}
	}

	err := bestOfThree(&sb, func(lat [][]time.Duration, errs []error) {
		parallel.DoWorkers(sb.Clients, sb.Requests, func(worker, _ int) {
			if errs[worker] != nil {
				return
			}
			t0 := time.Now()
			if err := cl.Decide(true, reqs[worker], resps[worker]); err != nil {
				errs[worker] = err
				return
			}
			lat[worker] = append(lat[worker], time.Since(t0))
		})
	})
	return sb, err
}

// ScenarioRow is one BENCH_scenarios.json claim: a scenario kind's
// absolute fleet metrics and its deltas against the non-adversarial
// baseline fleet at the same seed and shape.
type ScenarioRow struct {
	Kind                 string  `json:"kind"`
	HitRate              float64 `json:"hit_rate"`
	SLOViolationFraction float64 `json:"slo_violation_fraction"`
	CostUSD              float64 `json:"cost_usd"`
	HitRateDelta         float64 `json:"hit_rate_delta"`
	SLOViolationDelta    float64 `json:"slo_violation_delta"`
	CostDeltaPct         float64 `json:"cost_delta_pct"`
}

// ScenarioReport is the BENCH_scenarios.json schema. Every row is
// bit-deterministic at the pinned seed (the sweep runs Workers=1), so
// drift within the gate's tolerance still indicates a real behaviour
// change — the tolerance exists for intentional small recalibrations.
type ScenarioReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	VMs        int           `json:"vms"`
	Days       int           `json:"days"`
	Baseline   ScenarioRow   `json:"baseline"`
	Scenarios  []ScenarioRow `json:"scenarios"`
}

func scenarioRow(c experiments.ScenarioClaim) ScenarioRow {
	return ScenarioRow{
		Kind:                 c.Kind,
		HitRate:              c.HitRate,
		SLOViolationFraction: c.SLOViolationFraction,
		CostUSD:              c.CostUSD,
		HitRateDelta:         c.HitRateDelta,
		SLOViolationDelta:    c.SLODelta,
		CostDeltaPct:         c.CostDeltaPct,
	}
}

// benchScenarios runs the claims sweep: an 8-VM, 1-day fleet at seed
// 42, unperturbed and once per adversarial kind.
func benchScenarios() (*ScenarioReport, error) {
	sweep, err := experiments.ScenarioSweep(experiments.ScenarioOptions{Seed: 42, VMs: 8, Days: 1})
	if err != nil {
		return nil, err
	}
	rep := &ScenarioReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       sweep.Seed,
		VMs:        sweep.VMs,
		Days:       sweep.Days,
		Baseline:   scenarioRow(sweep.Baseline),
	}
	for _, c := range sweep.Claims {
		rep.Scenarios = append(rep.Scenarios, scenarioRow(c))
	}
	return rep, nil
}

// benchLearn times one KMeansAuto sweep over a 6000-row signature set
// on the fast engine and on the reference path.
func benchLearn() (*LearnReport, error) {
	const (
		seed    = 42
		n       = 6000
		dims    = 6
		classes = 5
		minK    = 2
		maxK    = 12
	)
	// A fleet-scale signature set with workload-class structure
	// (well-separated means, unit-ish noise) like the ones the
	// learning phase clusters after CFS projection.
	X := ml.ClusteredDataset(seed, n, dims, classes)
	rep := &LearnReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	lb := &rep.KMeansAuto
	*lb = LearnBench{N: n, Dims: dims, MinK: minK, MaxK: maxK, Restarts: 5, Seed: seed}

	// Fast engine: best of three sweeps, fresh RNG each so every
	// sweep consumes the identical derived-seed stream.
	fast := time.Duration(1<<63 - 1)
	var fastRes *ml.KMeansResult
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		res, err := ml.KMeansAuto(X, minK, maxK, ml.KMeansConfig{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			return nil, err
		}
		if el := time.Since(start); el < fast {
			fast = el
		}
		fastRes = res
	}

	// Reference path (naive Lloyd + exact per-k silhouette), once —
	// it is the expensive side by construction.
	start := time.Now()
	refRes, err := ml.KMeansAutoReference(X, minK, maxK, ml.KMeansConfig{Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return nil, err
	}
	baseline := time.Since(start)

	lb.FastMs = float64(fast.Microseconds()) / 1000
	lb.BaselineMs = float64(baseline.Microseconds()) / 1000
	if lb.FastMs > 0 {
		lb.Speedup = lb.BaselineMs / lb.FastMs
	}
	lb.ChosenK = fastRes.K
	lb.BaselineChosenK = refRes.K
	return rep, nil
}

// benchFleetReport measures the run phase: the 100-VM headline fleet,
// the tracked hot paths, and one scale row per size in scale.
func benchFleetReport(scale []int) (*Report, error) {
	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var err error
	if rep.Fleet, err = benchFleet(100); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if rep.SignatureCollection, err = benchSignatureCollection(); err != nil {
		return nil, fmt.Errorf("signature collection: %w", err)
	}
	rep.ServicePerf = benchServicePerf()
	if rep.MVASolve, err = benchMVA(false); err != nil {
		return nil, fmt.Errorf("mva: %w", err)
	}
	if rep.MVAMemoized, err = benchMVA(true); err != nil {
		return nil, fmt.Errorf("mva memo: %w", err)
	}
	for _, n := range scale {
		row, err := benchFleetScale(n)
		if err != nil {
			return nil, fmt.Errorf("scale vms=%d: %w", n, err)
		}
		fmt.Fprintf(os.Stderr, "dejavu-bench: scale vms=%d %.0f steps/s (%.0f per core, %d workers, %.1fs)\n",
			row.VMs, row.StepsPerSec, row.StepsPerSecPerCore, row.Workers, row.Seconds)
		rep.FleetScale = append(rep.FleetScale, row)
	}
	return rep, nil
}

func toBench(r testing.BenchmarkResult) Bench {
	return Bench{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchFleet(vms int) (FleetBench, error) {
	var runErr error
	var lastRes *fleet.Result
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			specs, err := sim.GenerateScenario(sim.ScenarioConfig{
				Rng:         rand.New(rand.NewSource(42)),
				VMs:         vms,
				Days:        1,
				Homogeneous: true,
			})
			if err != nil {
				runErr = err
				b.FailNow()
			}
			b.StartTimer()
			res, err := fleet.Run(fleet.Config{Specs: specs})
			if err != nil {
				runErr = err
				b.FailNow()
			}
			b.ReportMetric(res.StepsPerSecond(), "steps/s")
			b.ReportMetric(100*res.HitRate(), "repo-hit%")
			lastRes = res
		}
	})
	if runErr != nil {
		return FleetBench{}, runErr
	}
	out := FleetBench{
		VMs:         vms,
		StepsPerSec: r.Extra["steps/s"],
		RepoHitPct:  r.Extra["repo-hit%"],
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if lastRes != nil {
		out.LearnPhase = lastRes.LearnPhase
		out.StepPhase = lastRes.StepPhase
	}
	return out, nil
}

// benchFleetScale times one full fleet run at scale: all cores,
// DiscardRecords (aggregates are bit-identical to a recording run, and
// 100k VMs of step records would need >10 GB for output nobody reads).
// One run, not best-of-N: at this size a single run phase is seconds
// of work and the per-core gate's 20% tolerance absorbs scheduler
// noise.
func benchFleetScale(vms int) (FleetScaleBench, error) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:         rand.New(rand.NewSource(42)),
		VMs:         vms,
		Days:        1,
		Homogeneous: true,
	})
	if err != nil {
		return FleetScaleBench{}, err
	}
	workers := runtime.GOMAXPROCS(0)
	res, err := fleet.Run(fleet.Config{Specs: specs, Workers: workers, DiscardRecords: true})
	if err != nil {
		return FleetScaleBench{}, err
	}
	cores := runtime.GOMAXPROCS(0)
	out := FleetScaleBench{
		VMs:            vms,
		Workers:        workers,
		Cores:          cores,
		Seconds:        res.Elapsed.Seconds(),
		StepsPerSec:    res.StepsPerSecond(),
		RepoHitPct:     100 * res.HitRate(),
		DiscardRecords: true,
	}
	if cores > 0 {
		out.StepsPerSecPerCore = out.StepsPerSec / float64(cores)
	}
	return out, nil
}

func benchSignatureCollection() (Bench, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		svc := services.NewCassandra()
		prof, err := core.NewProfiler(svc, rand.New(rand.NewSource(4)))
		if err != nil {
			runErr = err
			b.FailNow()
		}
		events := []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt}
		w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
		var sig core.Signature
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prof.ProfileInto(w, events, prof.Window, &sig); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	return toBench(r), runErr
}

func benchServicePerf() Bench {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		svc := services.NewCassandra()
		memo := services.NewPerfMemo(svc)
		w := services.Workload{Clients: 300, Mix: svc.DefaultMix()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = memo.Perf(&w, 7)
		}
	})
	return toBench(r)
}

func benchMVA(memoized bool) (Bench, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		nw := &queueing.Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
		ms := queueing.NewMemoSolver()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if memoized {
				_, err = ms.Solve(nw, 500)
			} else {
				_, err = nw.Solve(500)
			}
			if err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	return toBench(r), runErr
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// fatalf prints a prefixed error and exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dejavu-bench: "+format+"\n", args...)
	os.Exit(1)
}

// readBaseline reads and parses a committed baseline file, exiting on
// failure; nil means no baseline was requested.
func readBaseline[T any](path, what string) *T {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read %s baseline: %v", what, err)
	}
	b := new(T)
	if err := json.Unmarshal(data, b); err != nil {
		fatalf("parse %s baseline: %v", what, err)
	}
	return b
}

// emitReport prints the report to stdout and, when outPath is set,
// writes it there too, exiting on failure.
func emitReport(outPath string, v any) {
	if err := writeJSON(os.Stdout, v); err != nil {
		fatalf("%v", err)
	}
	if outPath == "" {
		return
	}
	f, err := os.Create(outPath)
	if err != nil {
		fatalf("%v", err)
	}
	err = writeJSON(f, v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// suite is one benchmark family: the report it writes to out, the
// baseline at check it is gated against, how it is measured, and how
// a measurement and a baseline become gate rows.
type suite[T any] struct {
	name       string
	out, check string
	measure    func() (*T, error)
	rows       func(cur, bas *T) []row
}

// run measures the suite when it was asked for (or force is set),
// emits the report, and gates it against the baseline. The baseline is
// read first, so `-out X -check X` gates against the previous contents
// of X, not the fresh ones.
func (s suite[T]) run(force bool) {
	if !force && s.out == "" && s.check == "" {
		return
	}
	bas := readBaseline[T](s.check, s.name)
	cur, err := s.measure()
	if err != nil {
		fatalf("%s: %v", s.name, err)
	}
	emitReport(s.out, cur)
	if bas == nil {
		return
	}
	rows := s.rows(cur, bas)
	if err := gate(rows); err != nil {
		fatalf("REGRESSION vs %s:\n%v", s.check, err)
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "dejavu-bench: ok %v\n", r)
	}
}

func main() {
	out := flag.String("out", "", "write run-phase results to this JSON file")
	checkPath := flag.String("check", "", "gate the run phase against this baseline JSON")
	scaleVMs := flag.String("scale-vms", "", "comma-separated fleet sizes for single-shot scale rows (e.g. 10000,100000)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	learnOut := flag.String("learn-out", "", "write learn-phase results to this JSON file")
	learnCheck := flag.String("learn-check", "", "gate the learn phase against this baseline JSON")
	serveOut := flag.String("serve-out", "", "write decision-service results to this JSON file")
	serveCheck := flag.String("serve-check", "", "gate the decision service against this baseline JSON")
	scenariosOut := flag.String("scenarios-out", "", "write adversarial scenario claims to this JSON file")
	scenariosCheck := flag.String("scenarios-check", "", "gate scenario claims against this baseline JSON")
	flag.Parse()

	var scale []int
	if *scaleVMs != "" {
		for _, field := range strings.Split(*scaleVMs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				fatalf("scale-vms: bad fleet size %q", field)
			}
			scale = append(scale, n)
		}
	}

	// Profiles cover everything the invocation runs; feed them to
	// `go tool pprof` to see where scale-row steps/s goes.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	suite[ScenarioReport]{"scenarios", *scenariosOut, *scenariosCheck, benchScenarios, scenarioRows}.run(false)
	suite[ServeReport]{"serve", *serveOut, *serveCheck, benchServe, serveRows}.run(false)
	suite[LearnReport]{"learn", *learnOut, *learnCheck, benchLearn, learnRows}.run(false)
	// The run phase also runs when no suite is named at all.
	others := *scenariosOut + *scenariosCheck + *serveOut + *serveCheck + *learnOut + *learnCheck
	fleetReport := func() (*Report, error) { return benchFleetReport(scale) }
	suite[Report]{"fleet", *out, *checkPath, fleetReport, fleetRows}.run(others == "")
}
