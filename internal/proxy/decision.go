package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// DecisionFront is the duplicating proxy lifted from the byte-stream
// layer to the decision layer, built entirely on the unified protocol
// stack: it accepts wire-protocol decision requests over HTTP in
// either encoding, forwards them to an upstream dejavud through the
// internal/client library (pooled connections, binary encoding,
// retry/backoff), and re-encodes the reply in each caller's own
// encoding. It keeps the paper's §3.2.1 duplicate-and-discard trick:
// a sampled subset of decision batches is mirrored to a profiling
// clone daemon on a bounded asynchronous queue whose replies are
// dropped, so profiling a candidate repository build can never
// backpressure production decisions.
//
// The front is the horizontal-scaling seam: old JSON-only clients
// keep their encoding at the edge while every upstream hop speaks
// binary, and swapping Upstream for a replica.Registry turns it into
// a dejavud load balancer — health-checked round-robin with failover
// — without touching clients. In replicated mode the front also
// exposes the tier's control plane: installs fan out with the
// registry's publish-then-flip protocol, puts fan to every replica,
// and /v1/health reports per-replica states.
type DecisionFrontConfig struct {
	// Upstream serves the real decisions. Exactly one of Upstream and
	// Replicas must be set.
	Upstream *client.Client
	// Replicas routes decisions over a replicated dejavud tier
	// instead of a single upstream. The front does not own the
	// registry — the caller closes it after closing the front.
	Replicas *replica.Registry
	// Clone, when set, receives mirrored decision batches; replies
	// are dropped.
	Clone *client.Client
	// SampleEvery mirrors one in every N batches (default 1).
	SampleEvery int
	// CloneQueue bounds the mirror backlog in batches before drops
	// (default 256).
	CloneQueue int
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// DecisionFrontStats reports front activity. All counters cumulative.
type DecisionFrontStats struct {
	Batches     int64 `json:"batches"`
	Decisions   int64 `json:"decisions"`
	Errors      int64 `json:"errors"`
	Mirrored    int64 `json:"mirrored_batches"`
	MirrorDrops int64 `json:"mirror_drops"`
	MirrorFails int64 `json:"mirror_failures"`
}

// mirrorJob is one cloned batch (owned copies — the request scratch
// is pooled).
type mirrorJob struct {
	lookup   bool
	template string
	bucket   int
	rows     []float64
	width    int
}

// DecisionFront fronts a dejavud (or a replica of one) for many
// clients. Create with NewDecisionFront, expose via Handler, Close
// when done.
type DecisionFront struct {
	cfg  DecisionFrontConfig
	mux  *http.ServeMux
	pool sync.Pool // *frontScratch

	batches     atomic.Int64
	decisions   atomic.Int64
	errorsN     atomic.Int64
	mirrored    atomic.Int64
	mirrorDrops atomic.Int64
	mirrorFails atomic.Int64

	// decideLat is the front's own forwarding latency — decode done,
	// upstream answered — exported as a histogram on /metrics.
	decideLat obs.Histogram
	// spans receives one span per traced decision through the front
	// (and, in replicated mode, the registry's routing spans too);
	// dumped via /v1/trace.
	spans *obs.SpanRing

	mirrorCh  chan mirrorJob
	mirrorWg  sync.WaitGroup
	closeOnce sync.Once
}

// frontScratch is the pooled per-request state.
type frontScratch struct {
	body  []byte
	req   wire.Request
	resp  wire.Response
	entry wire.Entry
	out   []byte
}

// readBody drains a request body (at most 8 MiB) into the pooled
// buffer; steady state allocates nothing once the buffer fits.
func readBody(body io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	limited := io.LimitReader(body, 8<<20)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := limited.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// NewDecisionFront validates the configuration and starts the mirror
// drain (when a clone is configured).
func NewDecisionFront(cfg DecisionFrontConfig) (*DecisionFront, error) {
	if (cfg.Upstream == nil) == (cfg.Replicas == nil) {
		return nil, errors.New("proxy: exactly one of Upstream and Replicas must be set")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.CloneQueue <= 0 {
		cfg.CloneQueue = 256
	}
	f := &DecisionFront{cfg: cfg, spans: obs.NewSpanRing(obs.DefaultSpanRingSize)}
	f.pool.New = func() any { return &frontScratch{} }
	f.mux = http.NewServeMux()
	f.mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) { f.handleDecision(w, r, false) })
	f.mux.HandleFunc("/v1/lookup", func(w http.ResponseWriter, r *http.Request) { f.handleDecision(w, r, true) })
	f.mux.HandleFunc("/v1/stats", f.handleStats)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	f.mux.HandleFunc("/v1/trace", f.handleTrace)
	if cfg.Replicas != nil {
		// Adopt the tier: registry routing spans land in the front's
		// ring, so one /v1/trace dump shows both hops of a decision.
		cfg.Replicas.SetSpans(f.spans)
		f.mux.HandleFunc("/v1/install", f.handleInstall)
		f.mux.HandleFunc("/v1/put", f.handleEntry(true))
		f.mux.HandleFunc("/v1/get", f.handleEntry(false))
		f.mux.HandleFunc("/v1/templates", f.handleTemplates)
		f.mux.HandleFunc("/v1/health", f.handleHealth)
	}
	if cfg.Clone != nil {
		f.mirrorCh = make(chan mirrorJob, cfg.CloneQueue)
		f.mirrorWg.Add(1)
		go f.drainMirror()
	}
	return f, nil
}

// Handler returns the HTTP handler serving the front's endpoints.
func (f *DecisionFront) Handler() http.Handler { return f.mux }

// Close stops the mirror drain after its queue empties.
func (f *DecisionFront) Close() {
	f.closeOnce.Do(func() {
		if f.mirrorCh != nil {
			close(f.mirrorCh)
			f.mirrorWg.Wait()
		}
	})
}

// Stats returns a snapshot of the activity counters.
func (f *DecisionFront) Stats() DecisionFrontStats {
	return DecisionFrontStats{
		Batches:     f.batches.Load(),
		Decisions:   f.decisions.Load(),
		Errors:      f.errorsN.Load(),
		Mirrored:    f.mirrored.Load(),
		MirrorDrops: f.mirrorDrops.Load(),
		MirrorFails: f.mirrorFails.Load(),
	}
}

func (f *DecisionFront) fail(w http.ResponseWriter, status int, err error) {
	f.errorsN.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleDecision decodes in the caller's encoding, forwards upstream
// through the client library (which re-encodes in its own transport
// encoding), and answers in the caller's encoding — the front is an
// encoding-translating hop.
func (f *DecisionFront) handleDecision(w http.ResponseWriter, r *http.Request, lookup bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		f.fail(w, http.StatusMethodNotAllowed, errors.New("proxy: method not allowed"))
		return
	}
	enc := wire.EncodingForContentType(r.Header.Get("Content-Type"))
	sc := f.pool.Get().(*frontScratch)
	defer f.pool.Put(sc)
	var err error
	if sc.body, err = readBody(r.Body, sc.body); err != nil {
		f.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := sc.req.Decode(enc, sc.body); err != nil {
		f.fail(w, http.StatusBadRequest, err)
		return
	}
	// The JSON vocabulary permits ragged batches (the daemon rejects
	// them against its repository width); the binary upstream hop
	// cannot express them. Reject here as the client error it is —
	// otherwise the encode failure inside the upstream call would
	// surface as a 502.
	if _, rect := sc.req.Rectangular(); !rect {
		f.fail(w, http.StatusBadRequest, errors.New("proxy: signatures must all have the same width"))
		return
	}

	n := f.batches.Add(1)
	if f.mirrorCh != nil && (n-1)%int64(f.cfg.SampleEvery) == 0 {
		f.mirror(&sc.req, lookup)
	}

	// A sampled caller propagates its trace context in the DejaVu-Trace
	// header; the front records its own hop and forwards a child
	// context so the downstream tiers parent to this span.
	parent, _ := obs.ParseHeaderContext(r.Header.Get(obs.TraceHeader))
	var child obs.TraceContext
	if parent.Valid() {
		child = obs.Child(parent)
	}
	start := time.Now()
	err = f.decideTraced(lookup, &sc.req, &sc.resp, child)
	elapsed := time.Since(start)
	f.decideLat.Record(elapsed)
	if child.Valid() {
		op := "classify"
		if lookup {
			op = "lookup"
		}
		f.spans.RecordHop(parent, child, "front", op, start, elapsed)
	}
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			f.errorsN.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(apiErr.Status)
			_, _ = io.WriteString(w, apiErr.Body)
			return
		}
		f.fail(w, http.StatusBadGateway, err)
		return
	}
	f.decisions.Add(int64(len(sc.resp.Results)))
	sc.out = sc.resp.Append(enc, sc.out[:0])
	h := w.Header()
	h.Set("Content-Type", enc.ContentType())
	h.Set("Content-Length", strconv.Itoa(len(sc.out)))
	_, _ = w.Write(sc.out)
}

// mirror enqueues an owned copy of the batch for the clone; a full
// queue drops the batch — profiling tolerates gaps, production
// latency must not.
func (f *DecisionFront) mirror(req *wire.Request, lookup bool) {
	rows := req.Rows()
	if rows == 0 {
		return
	}
	// Decoded batches are rectangular with width ≥ 1 (the wire
	// decoders reject empty rows), so drainMirror's `i += width`
	// reassembly always advances.
	width := len(req.Row(0))
	job := mirrorJob{
		lookup:   lookup,
		template: string(req.Template),
		bucket:   req.Bucket,
		rows:     make([]float64, 0, rows*width),
		width:    width,
	}
	for i := 0; i < rows; i++ {
		job.rows = append(job.rows, req.Row(i)...)
	}
	select {
	case f.mirrorCh <- job:
	default:
		f.mirrorDrops.Add(1)
	}
}

// drainMirror forwards mirrored batches to the clone and drops the
// replies.
func (f *DecisionFront) drainMirror() {
	defer f.mirrorWg.Done()
	var req wire.Request
	var resp wire.Response
	for job := range f.mirrorCh {
		if job.width <= 0 {
			// Defense in depth: enqueue rejects zero-width jobs, but a
			// non-positive stride here means an infinite loop — skip
			// rather than wedge the sole drain goroutine.
			f.mirrorFails.Add(1)
			continue
		}
		req.Reset()
		req.SetTemplate(job.template)
		req.Bucket = job.bucket
		for i := 0; i+job.width <= len(job.rows); i += job.width {
			req.AppendRow(job.rows[i : i+job.width])
		}
		if err := f.cfg.Clone.Decide(job.lookup, &req, &resp); err != nil {
			f.mirrorFails.Add(1)
			if f.cfg.Logf != nil {
				f.cfg.Logf("decision front: clone mirror failed: %v", err)
			}
			continue
		}
		f.mirrored.Add(1)
	}
}

// decideTraced routes one batch to the single upstream or the replica
// tier, forwarding the sampled trace context (zero means untraced and
// routes through the ordinary sampling path).
func (f *DecisionFront) decideTraced(lookup bool, req *wire.Request, resp *wire.Response, tc obs.TraceContext) error {
	if f.cfg.Replicas != nil {
		return f.cfg.Replicas.DecideTraced(lookup, req, resp, tc)
	}
	if tc.Valid() {
		return f.cfg.Upstream.DecideTraced(lookup, req, resp, tc)
	}
	return f.cfg.Upstream.Decide(lookup, req, resp)
}

// handleStats serves the front's own counters, or — in replicated
// mode, when a template is named — the tier-aggregated serving stats.
func (f *DecisionFront) handleStats(w http.ResponseWriter, r *http.Request) {
	if f.cfg.Replicas != nil {
		if tpl := r.URL.Query().Get("template"); tpl != "" {
			st, err := f.cfg.Replicas.Stats(tpl)
			if err != nil {
				f.relayError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(st)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(f.Stats())
}

// handleMetrics exposes the front's counters and latency histogram in
// the Prometheus text format — and, in replicated mode, the tier's
// failover counter plus the registry's probe/failover/resync latency
// histograms, so one scrape covers the whole serving tier.
func (f *DecisionFront) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		f.fail(w, http.StatusMethodNotAllowed, errors.New("proxy: method not allowed"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := f.Stats()
	counters := []struct {
		name, help string
		value      int64
	}{
		{"dejavu_front_batches_total", "Decision batches accepted by the front.", st.Batches},
		{"dejavu_front_decisions_total", "Individual decisions proxied to the serving tier.", st.Decisions},
		{"dejavu_front_errors_total", "Requests answered with an error status.", st.Errors},
		{"dejavu_front_mirrored_batches_total", "Batches mirrored to the profiling clone.", st.Mirrored},
		{"dejavu_front_mirror_drops_total", "Mirrored batches dropped at the bounded queue.", st.MirrorDrops},
		{"dejavu_front_mirror_failures_total", "Mirrored batches the clone failed to serve.", st.MirrorFails},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
	const latName = "dejavu_front_decide_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Front forwarding latency: decode done to upstream answered.\n# TYPE %s histogram\n", latName, latName)
	f.decideLat.Snapshot().WritePrometheus(w, latName, "")
	if f.cfg.Replicas == nil {
		return
	}
	const fo = "dejavu_front_replica_failovers_total"
	fmt.Fprintf(w, "# HELP %s Decisions that succeeded only after replica failover.\n# TYPE %s counter\n%s %d\n",
		fo, fo, fo, f.cfg.Replicas.Failovers())
	tier := f.cfg.Replicas.Obs()
	for _, h := range []struct {
		name, help string
		snap       obs.Snapshot
	}{
		{"dejavu_replica_probe_rtt_seconds", "Successful replica health-probe round trips.", tier.ProbeRTT},
		{"dejavu_replica_failover_duration_seconds", "Routing episodes that needed replica failover.", tier.Failover},
		{"dejavu_replica_resync_duration_seconds", "Completed donor-to-replica repairs.", tier.Resync},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
		h.snap.WritePrometheus(w, h.name, "")
	}
}

// handleTrace dumps the front's span ring (front hops plus, in
// replicated mode, the registry's routing hops).
func (f *DecisionFront) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		f.fail(w, http.StatusMethodNotAllowed, errors.New("proxy: method not allowed"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = f.spans.WriteJSON(w, "front")
}

// Spans exposes the front's trace ring (tests stitch cross-tier
// traces through it).
func (f *DecisionFront) Spans() *obs.SpanRing { return f.spans }

// DecideLatency snapshots the front's forwarding-latency histogram.
func (f *DecisionFront) DecideLatency() obs.Snapshot { return f.decideLat.Snapshot() }

// relayError maps a registry error onto the front's wire contract:
// replica-side application errors keep their status and body (the
// front is a pass-through), everything else is a bad gateway.
func (f *DecisionFront) relayError(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		f.errorsN.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(apiErr.Status)
		_, _ = io.WriteString(w, apiErr.Body)
		return
	}
	f.fail(w, http.StatusBadGateway, err)
}

// handleInstall accepts serialized repository bytes and publishes
// them tier-wide through the registry's publish-then-flip protocol.
func (f *DecisionFront) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		f.fail(w, http.StatusMethodNotAllowed, errors.New("proxy: method not allowed"))
		return
	}
	template := r.URL.Query().Get("template")
	if template == "" {
		f.fail(w, http.StatusBadRequest, errors.New("proxy: install needs ?template="))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		f.fail(w, http.StatusBadRequest, err)
		return
	}
	version, err := f.cfg.Replicas.InstallSerialized(template, body)
	if err != nil {
		f.relayError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"template": template, "version": version})
}

// handleEntry serves /v1/get and /v1/put for the tier: the JSON body
// is decoded once, routed through the registry's typed Get (failover)
// or Put (fan-out) — each replica hop on that replica's decision
// transport — and answered in the daemon's own JSON reply shape.
func (f *DecisionFront) handleEntry(put bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			f.fail(w, http.StatusMethodNotAllowed, errors.New("proxy: method not allowed"))
			return
		}
		sc := f.pool.Get().(*frontScratch)
		defer f.pool.Put(sc)
		var err error
		if sc.body, err = readBody(r.Body, sc.body); err != nil {
			f.fail(w, http.StatusBadRequest, err)
			return
		}
		e := &sc.entry
		if err := e.DecodeRequest(wire.EncodingJSON, put, sc.body); err != nil {
			f.fail(w, http.StatusBadRequest, err)
			return
		}
		if put {
			err = f.cfg.Replicas.Put(e)
		} else {
			err = f.cfg.Replicas.Get(e)
		}
		if err != nil {
			f.relayError(w, err)
			return
		}
		sc.out = e.AppendReply(wire.EncodingJSON, put, sc.out[:0])
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		_, _ = w.Write(sc.out)
	}
}

func (f *DecisionFront) handleTemplates(w http.ResponseWriter, _ *http.Request) {
	infos, err := f.cfg.Replicas.Templates()
	if err != nil {
		f.relayError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(infos)
}

// handleHealth reports the front plus the tier: per-replica health
// states and the agreed template versions.
func (f *DecisionFront) handleHealth(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		Status string             `json:"status"`
		Front  DecisionFrontStats `json:"front"`
		Tier   replica.Status     `json:"tier"`
	}{Status: "ok", Front: f.Stats(), Tier: f.cfg.Replicas.Status()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// String describes the front for logs.
func (f *DecisionFront) String() string {
	if f.cfg.Replicas != nil {
		return "decision front (replicated tier)"
	}
	if f.cfg.Clone != nil {
		return fmt.Sprintf("decision front (mirroring 1/%d batches)", f.cfg.SampleEvery)
	}
	return "decision front"
}
