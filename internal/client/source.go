package client

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TemplateSource binds a client to one remote template and implements
// core.DecisionSource, so a controller (or a whole fleet of them)
// drives the remote daemon exactly like an in-process repository.
// Safe for concurrent use.
type TemplateSource struct {
	c        *Client
	template string
	events   []metrics.Event
	scratch  sync.Pool // *decideScratch: per-goroutine wire state
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
	return s, nil
}

// Events implements core.DecisionSource.
func (s *TemplateSource) Events() []metrics.Event { return s.events }

// Lookup implements core.DecisionSource: one signature, one decision,
// over the wire.
func (s *TemplateSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if err := sig.Validate(); err != nil {
		return core.LookupResult{}, err
	}
	if len(sig.Values) != len(s.events) {
		return core.LookupResult{}, fmt.Errorf("client: signature width %d, template %q expects %d",
			len(sig.Values), s.template, len(s.events))
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
