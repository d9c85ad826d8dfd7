package client

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// CoalesceConfig tunes batch coalescing on template sources: lookups
// issued concurrently by many goroutines against the same
// (template, bucket) are merged into one batched wire request.
type CoalesceConfig struct {
	// MaxBatch flushes a batch when it reaches this many signatures
	// (default 16). Zero MaxBatch and MaxDelay disables coalescing.
	MaxBatch int
	// MaxDelay flushes a non-full batch this long after its first
	// signature — the latency bound a lookup pays for sharing a round
	// trip (default 500µs when MaxBatch is unset). MaxDelay == 0 with
	// MaxBatch > 0 means flush-on-full only: no timer is armed, and a
	// lookup waits until MaxBatch-1 peers join its batch. That shape
	// fits steady high-rate callers that never want a partial flush.
	MaxDelay time.Duration
}

func (c CoalesceConfig) enabled() bool { return c.MaxBatch > 0 || c.MaxDelay > 0 }

func (c *CoalesceConfig) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
		// Only delay-driven coalescing was asked for; without a
		// default delay the batch would wait forever for 15 peers.
		if c.MaxDelay <= 0 {
			c.MaxDelay = 500 * time.Microsecond
		}
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
}

// TemplateSource binds a client to one remote template and implements
// core.DecisionSource, so a controller (or a whole fleet of them)
// drives the remote daemon exactly like an in-process repository.
// Safe for concurrent use.
type TemplateSource struct {
	c        *Client
	template string
	events   []metrics.Event
	scratch  sync.Pool // *decideScratch: per-goroutine wire state
	coal     *coalescer
}

// decideScratch is the reusable wire state of one in-flight decision.
type decideScratch struct {
	req   wire.Request
	resp  wire.Response
	entry wire.Entry
}

// Source binds the client to a remote template. events is the
// template's signature tuple — the caller usually knows it (it
// learned or installed the repository); pass nil to fetch it from
// the daemon's /v1/templates listing.
func (c *Client) Source(template string, events []metrics.Event) (*TemplateSource, error) {
	if events == nil {
		infos, err := c.Templates()
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			if info.Template == template {
				events = info.Events
				break
			}
		}
		if events == nil {
			return nil, fmt.Errorf("client: daemon serves no template %q", template)
		}
	}
	s := &TemplateSource{c: c, template: template, events: events}
	s.scratch.New = func() any { return &decideScratch{} }
	if c.cfg.Coalesce.enabled() {
		cfg := c.cfg.Coalesce
		cfg.defaults()
		s.coal = newCoalescer(s, cfg)
	}
	return s, nil
}

// Events implements core.DecisionSource.
func (s *TemplateSource) Events() []metrics.Event { return s.events }

// Lookup implements core.DecisionSource: one signature, one decision,
// over the wire (coalesced into a shared batch when enabled).
func (s *TemplateSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if err := sig.Validate(); err != nil {
		return core.LookupResult{}, err
	}
	if len(sig.Values) != len(s.events) {
		return core.LookupResult{}, fmt.Errorf("client: signature width %d, template %q expects %d",
			len(sig.Values), s.template, len(s.events))
	}
	if s.coal != nil {
		return s.coal.lookup(sig.Values, bucket)
	}
	sc := s.scratch.Get().(*decideScratch)
	defer s.scratch.Put(sc)
	sc.req.Reset()
	sc.req.SetTemplate(s.template)
	sc.req.Bucket = bucket
	sc.req.AppendRow(sig.Values)
	if err := s.c.Decide(true, &sc.req, &sc.resp); err != nil {
		return core.LookupResult{}, err
	}
	return decisionToLookup(&sc.resp.Results[0]), nil
}

// LookupBatch sends a caller-assembled batch for template-routed
// lookup; req's template field is overwritten with the source's. The
// fleet's load generators and the decision proxy use this shape.
func (s *TemplateSource) LookupBatch(req *wire.Request, resp *wire.Response) error {
	req.SetTemplate(s.template)
	return s.c.Decide(true, req, resp)
}

// decisionToLookup maps a wire decision row to the library type.
func decisionToLookup(d *wire.Decision) core.LookupResult {
	res := core.LookupResult{
		Class:      d.Class,
		Certainty:  d.Certainty,
		Unforeseen: d.Unforeseen,
		Hit:        d.Hit,
	}
	if d.Hit {
		res.Allocation = cloud.Allocation{Type: d.Type.Instance(), Count: d.Count}
	}
	return res
}

// Get implements core.DecisionSource over the decision transport
// (Client.Entry): the controller's interference probe by (class,
// bucket).
func (s *TemplateSource) Get(class, bucket int) (cloud.Allocation, bool, error) {
	sc := s.scratch.Get().(*decideScratch)
	defer s.scratch.Put(sc)
	e := s.entry(sc, class, bucket)
	if err := s.c.Entry(false, e); err != nil {
		return cloud.Allocation{}, false, err
	}
	if !e.Hit {
		return cloud.Allocation{}, false, nil
	}
	return cloud.Allocation{Type: e.Type.Instance(), Count: e.Count}, true, nil
}

// Put implements core.DecisionSource over the decision transport
// (Client.Entry).
func (s *TemplateSource) Put(class, bucket int, alloc cloud.Allocation) error {
	sc := s.scratch.Get().(*decideScratch)
	defer s.scratch.Put(sc)
	e := s.entry(sc, class, bucket)
	e.Type, e.Count = alloc.Type.ID(), alloc.Count
	return s.c.Entry(true, e)
}

// entry readies the scratch entry for a request on this template.
func (s *TemplateSource) entry(sc *decideScratch, class, bucket int) *wire.Entry {
	e := &sc.entry
	e.Reset()
	e.SetTemplate(s.template)
	e.Class, e.Bucket = class, bucket
	return e
}

var _ core.DecisionSource = (*TemplateSource)(nil)

// coalescer merges concurrent single lookups into batched requests,
// one open batch per interference bucket.
type coalescer struct {
	src *TemplateSource
	cfg CoalesceConfig

	mu      sync.Mutex
	pending map[int]*openBatch
}

// openBatch accumulates rows until full or its delay fires.
type openBatch struct {
	bucket  int
	opened  time.Time
	req     wire.Request
	waiters []chan batchResult
	timer   *time.Timer
	flushed bool
}

type batchResult struct {
	res core.LookupResult
	err error
}

func newCoalescer(src *TemplateSource, cfg CoalesceConfig) *coalescer {
	return &coalescer{src: src, cfg: cfg, pending: map[int]*openBatch{}}
}

// lookup joins (or opens) the bucket's batch and waits for its row's
// decision.
func (co *coalescer) lookup(values []float64, bucket int) (core.LookupResult, error) {
	done := make(chan batchResult, 1)
	co.mu.Lock()
	b := co.pending[bucket]
	if b == nil {
		b = &openBatch{bucket: bucket, opened: time.Now()}
		b.req.SetTemplate(co.src.template)
		b.req.Bucket = bucket
		co.pending[bucket] = b
		// MaxDelay == 0 means flush-on-full only: arming
		// time.AfterFunc(0) here would fire immediately and flush
		// batches of one, silently disabling coalescing.
		if co.cfg.MaxDelay > 0 {
			batch := b
			b.timer = time.AfterFunc(co.cfg.MaxDelay, func() { co.flush(batch) })
		}
	}
	b.req.AppendRow(values)
	b.waiters = append(b.waiters, done)
	full := b.req.Rows() >= co.cfg.MaxBatch
	co.mu.Unlock()
	if full {
		co.flush(b)
	}
	r := <-done
	return r.res, r.err
}

// flush sends the batch (once) and fans results out to its waiters.
func (co *coalescer) flush(b *openBatch) {
	co.mu.Lock()
	if b.flushed {
		co.mu.Unlock()
		return
	}
	b.flushed = true
	if b.timer != nil {
		b.timer.Stop()
	}
	if co.pending[b.bucket] == b {
		delete(co.pending, b.bucket)
	}
	co.mu.Unlock()
	// The coalesce delay is what the batch's first signature paid for
	// sharing a round trip: open-to-flush, whether the flush came from
	// the MaxBatch fill or the MaxDelay timer.
	co.src.c.coalesceDelay.Record(time.Since(b.opened))

	var resp wire.Response
	err := co.src.c.Decide(true, &b.req, &resp)
	// A response that does not carry exactly one result per waiter
	// must fan an error to everyone: indexing resp.Results[i] past a
	// short batch would panic this goroutine — possibly the shared
	// time.AfterFunc timer goroutine — and strand every other waiter
	// on <-done forever.
	if err == nil && len(resp.Results) != len(b.waiters) {
		err = fmt.Errorf("client: coalesced batch of %d signatures got %d results",
			len(b.waiters), len(resp.Results))
	}
	for i, w := range b.waiters {
		if err != nil {
			w <- batchResult{err: err}
			continue
		}
		w <- batchResult{res: decisionToLookup(&resp.Results[i])}
	}
}
