package core

import (
	"repro/internal/cloud"
	"repro/internal/metrics"
)

// DecisionSource is everything a runtime controller needs from the
// decision plane: the signature vocabulary, classify-and-lookup over
// it, and the miss path's read/write entry access. Two
// implementations exist — *Handle serves from an in-process versioned
// repository, and internal/client's template source forwards over the
// wire to a remote dejavud — so the same controller code drives both
// deployment shapes, and a fleet can switch between them with a flag
// (dejavu-sim -fleet N -remote addr).
//
// Implementations must be safe for concurrent use: a fleet shares one
// source across every VM of a service template.
type DecisionSource interface {
	// Events returns the signature metric tuple. Callers must treat
	// the slice as read-only; it is fetched once per controller and
	// reused across profiling rounds.
	Events() []metrics.Event
	// Lookup classifies the signature and fetches the cached
	// allocation for the interference bucket.
	Lookup(sig *Signature, bucket int) (LookupResult, error)
	// Get fetches a cached allocation by (class, bucket) without
	// classification — the interference path's direct probe.
	Get(class, bucket int) (cloud.Allocation, bool, error)
	// Put stores a tuned allocation for every peer to reuse.
	Put(class, bucket int, alloc cloud.Allocation) error
}

// Handle's DecisionSource: every call serves from the live snapshot,
// so a background relearn swap is picked up by the next call without
// any controller involvement.

// Events implements DecisionSource.
func (h *Handle) Events() []metrics.Event { return h.Current().Repo.EventsRef() }

// Lookup implements DecisionSource.
func (h *Handle) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	return h.Current().Repo.Lookup(sig, bucket)
}

// Get implements DecisionSource.
func (h *Handle) Get(class, bucket int) (cloud.Allocation, bool, error) {
	alloc, ok := h.Current().Repo.Get(class, bucket)
	return alloc, ok, nil
}

// Put implements DecisionSource.
func (h *Handle) Put(class, bucket int, alloc cloud.Allocation) error {
	return h.Current().Repo.Put(class, bucket, alloc)
}

var _ DecisionSource = (*Handle)(nil)

// SourceForRepository wraps a repository as a DecisionSource: a fresh
// Handle owning it, for the ControllerConfig.Repository shorthand and
// Controller.ReplaceRepository.
func SourceForRepository(repo *Repository) (DecisionSource, error) {
	h, err := NewHandle(repo)
	if err != nil {
		return nil, err
	}
	return h, nil
}
