package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Admin-plane calls. These are off the decision path and use
// encoding/json over the pooled HTTP transport.

// postJSON sends a JSON body and decodes the JSON reply into out
// (skipped when out is nil).
func (c *Client) postJSON(path string, body any, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	cn, resp, err := c.roundTrip("POST", path, "application/json", payload)
	if err != nil {
		return err
	}
	if out != nil {
		err = json.Unmarshal(resp, out)
	}
	c.release(cn, err == nil)
	return err
}

// getJSON fetches path and decodes the JSON reply into out.
func (c *Client) getJSON(path string, out any) error {
	cn, resp, err := c.roundTrip("GET", path, "", nil)
	if err != nil {
		return err
	}
	err = json.Unmarshal(resp, out)
	c.release(cn, err == nil)
	return err
}

// Install publishes a learned repository under the template id:
// POST /v1/install. The daemon creates the template or hot-swaps the
// existing one (version increments); the returned version is the one
// now serving.
func (c *Client) Install(template string, repo *core.Repository) (uint64, error) {
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return 0, err
	}
	return c.InstallSerialized(template, buf.Bytes(), 0)
}

// InstallSerialized publishes an already-serialized repository
// (core.SaveRepository bytes), optionally forcing the published
// version (0 = the daemon's next local increment). The replicated
// tier fans one serialization out to N replicas at one agreed
// version, so replicas always report identical versions for identical
// content.
func (c *Client) InstallSerialized(template string, data []byte, version uint64) (uint64, error) {
	path := "/v1/install?template=" + url.QueryEscape(template)
	if version != 0 {
		path += "&version=" + strconv.FormatUint(version, 10)
	}
	cn, resp, err := c.roundTrip("POST", path, "application/json", data)
	if err != nil {
		return 0, fmt.Errorf("client: install template %q: %w", template, err)
	}
	var out struct {
		Version uint64 `json:"version"`
	}
	err = json.Unmarshal(resp, &out)
	c.release(cn, err == nil)
	if err != nil {
		return 0, err
	}
	return out.Version, nil
}

// DumpSerialized fetches one template's live repository as the
// serialized core.SaveRepository bytes plus the version they were
// dumped at — the read half of InstallSerialized. A registry resyncs
// a rejoining replica by dumping a healthy donor and installing the
// bytes verbatim at the same version.
func (c *Client) DumpSerialized(template string) (uint64, []byte, error) {
	var out struct {
		Version uint64          `json:"version"`
		Repo    json.RawMessage `json:"repo"`
	}
	path := "/v1/dump"
	if template != "" {
		path += "?template=" + url.QueryEscape(template)
	}
	if err := c.getJSON(path, &out); err != nil {
		return 0, nil, fmt.Errorf("client: dump template %q: %w", template, err)
	}
	if out.Version == 0 || len(out.Repo) == 0 {
		return 0, nil, fmt.Errorf("client: dump template %q: empty document", template)
	}
	return out.Version, []byte(out.Repo), nil
}

// Stats is the client's view of one template's /v1/stats document
// plus the server-wide counters the control plane cares about.
type Stats struct {
	Template     string  `json:"template"`
	Version      uint64  `json:"version"`
	Classes      int     `json:"classes"`
	Entries      int     `json:"entries"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	HitRate      float64 `json:"hit_rate"`
	Decisions    int64   `json:"decisions"`
	Relearns     int64   `json:"relearns"`
	RelearnFails int64   `json:"relearn_failures"`
	Templates    int     `json:"templates"`
	BadRequests  int64   `json:"bad_requests"`
}

// Stats fetches one template's statistics ("" = the daemon's default
// template).
func (c *Client) Stats(template string) (Stats, error) {
	path := "/v1/stats"
	if template != "" {
		path += "?template=" + url.QueryEscape(template)
	}
	var st Stats
	if err := c.getJSON(path, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// TemplateInfo is one entry of the daemon's template listing.
type TemplateInfo struct {
	Template string          `json:"template"`
	Version  uint64          `json:"version"`
	Classes  int             `json:"classes"`
	Entries  int             `json:"entries"`
	Events   []metrics.Event `json:"events"`
}

// Templates lists the daemon's installed templates.
func (c *Client) Templates() ([]TemplateInfo, error) {
	var infos []TemplateInfo
	if err := c.getJSON("/v1/templates", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Snapshot asks the daemon to persist every template now.
func (c *Client) Snapshot() error {
	return c.postJSON("/v1/snapshot", struct{}{}, nil)
}

// HealthTemplate is one template's slice of the health document.
type HealthTemplate struct {
	Version uint64 `json:"version"`
	Entries int    `json:"entries"`
}

// Health is the daemon's GET /v1/health document.
type Health struct {
	Status        string                    `json:"status"`
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Templates     map[string]HealthTemplate `json:"templates"`
	Relearning    bool                      `json:"relearning"`
}

// Health fetches the daemon's liveness/version surface. Unlike
// decisions this is never retried across connections: a probe wants
// the daemon's state now, not after a backoff — callers own the
// failure policy. (Transport retries still apply; they are cheap and
// a probe interval bounds them anyway.)
func (c *Client) Health() (Health, error) {
	var h Health
	if err := c.getJSON("/v1/health", &h); err != nil {
		return Health{}, err
	}
	if h.Status != "ok" {
		return h, fmt.Errorf("client: daemon health status %q", h.Status)
	}
	return h, nil
}
