package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Raw-TCP decision transport. Decisions travel as wire envelopes
// over persistent connections (see internal/wire stream framing):
// one hello exchange per connection negotiating the encoding, then
// request envelopes answered by id. Every core.DecisionSource call
// rides it — classify, lookup, and the repository get/put of the
// controller's interference and miss paths; the admin plane (install,
// stats, snapshot) stays on HTTP. Retry policy matches the HTTP
// plane: transport failures retry on fresh connections with capped,
// jittered backoff; server rejections arrive as error envelopes and
// are returned as *APIError without retry.

// maxTCPResponseBytes bounds one response envelope — matches the
// server's default request-body limit.
const maxTCPResponseBytes = 8 << 20

// tcpConn is one pooled raw-TCP decision connection: the negotiated
// stream plus a connection-local request-id counter. The Stream owns
// the read/write scratch, so steady-state traffic on a pooled
// connection allocates nothing.
type tcpConn struct {
	nc     net.Conn
	st     *wire.Stream
	nextID uint32
	tcbuf  [obs.WireContextLen]byte // trace-context prefix scratch
}

// dialTCP establishes and handshakes a decision connection.
func (c *Client) dialTCP() (*tcpConn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.TCPAddr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial tcp %s: %w", c.cfg.TCPAddr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if err := nc.SetDeadline(time.Now().Add(c.cfg.DialTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	st := wire.NewStream(nc)
	if err := st.WriteClientHello(c.cfg.Encoding); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: tcp hello: %w", err)
	}
	enc, err := st.ReadServerHello()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: tcp hello: %w", err)
	}
	if enc != c.cfg.Encoding {
		nc.Close()
		return nil, fmt.Errorf("client: server negotiated encoding %d, want %d", enc, c.cfg.Encoding)
	}
	return &tcpConn{nc: nc, st: st}, nil
}

// getTCP borrows a pooled decision connection or dials a fresh one.
func (c *Client) getTCP() (*tcpConn, error) {
	select {
	case cn := <-c.tcpIdle:
		return cn, nil
	default:
		return c.dialTCP()
	}
}

// releaseTCP returns a healthy connection to the pool.
func (c *Client) releaseTCP(cn *tcpConn, healthy bool) {
	if cn == nil {
		return
	}
	if !healthy || c.closed.Load() {
		cn.nc.Close()
		return
	}
	select {
	case c.tcpIdle <- cn:
	default:
		cn.nc.Close()
	}
}

// decideTCP carries one encoded decision payload over the raw-TCP
// plane and decodes the reply into resp. The steady-state binary path
// allocates nothing once the pool and stream scratch have warmed up
// (pinned by TestClientTCPLookupZeroAlloc).
func (c *Client) decideTCP(lookup bool, payload []byte, resp *wire.Response, tc obs.TraceContext) error {
	var flags byte
	if lookup {
		flags = wire.StreamFlagLookup
	}
	return c.tcpRoundTrip(flags, payload, tc, func(body []byte) error {
		return resp.Decode(c.cfg.Encoding, body)
	})
}

// tcpRoundTrip sends one request envelope (flags name the operation)
// and hands the reply payload to decode, retrying transport failures
// on fresh connections like roundTrip does for HTTP. Every operation
// on the raw-TCP plane — classify, lookup, get, put — shares this one
// retry and backoff policy. decode must consume the payload before
// returning: it aliases the connection's read scratch.
func (c *Client) tcpRoundTrip(flags byte, payload []byte, tc obs.TraceContext, decode func([]byte) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := c.backoffWait(attempt); err != nil {
				return fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
		}
		cn, err := c.getTCP()
		if err != nil {
			lastErr = err
			continue
		}
		apiErr, err := c.exchangeTCP(cn, flags, payload, tc, decode)
		if err != nil {
			cn.nc.Close()
			lastErr = err
			continue
		}
		// An error envelope means the server parsed and rejected the
		// request; the stream stays synchronized, so the connection is
		// reusable and the rejection — like an HTTP 4xx — is never
		// retried.
		c.releaseTCP(cn, true)
		if apiErr != nil {
			return apiErr
		}
		return nil
	}
	return fmt.Errorf("client: tcp %s failed after %d attempts: %w", tcpOp(flags), c.cfg.Retries+1, lastErr)
}

// tcpOp names a request envelope's operation for error messages.
func tcpOp(flags byte) string {
	switch {
	case flags&wire.StreamFlagGet != 0:
		return "get"
	case flags&wire.StreamFlagPut != 0:
		return "put"
	}
	return "decide"
}

// Ping round-trips one empty ping-flagged envelope on the raw-TCP
// decision plane: accept, hello, framing, and the serving loop are all
// exercised without touching a repository. Deliberately no retries —
// a health probe wants the plane's state now, and its caller owns the
// failure policy.
func (c *Client) Ping() error {
	if c.cfg.TCPAddr == "" {
		return errors.New("client: ping needs a raw-TCP decision address")
	}
	cn, err := c.getTCP()
	if err != nil {
		return err
	}
	if err := cn.nc.SetDeadline(time.Now().Add(c.cfg.RequestTimeout)); err != nil {
		cn.nc.Close()
		return err
	}
	cn.nextID++
	id := cn.nextID
	if err := cn.st.WriteEnvelope(id, wire.StreamFlagPing, nil); err != nil {
		cn.nc.Close()
		return err
	}
	gotID, gotFlags, _, err := cn.st.ReadEnvelope(maxTCPResponseBytes)
	if err != nil {
		cn.nc.Close()
		return err
	}
	if gotID != id || gotFlags&wire.StreamFlagPing == 0 {
		cn.nc.Close()
		return fmt.Errorf("client: tcp ping answered with id %d flags %#x", gotID, gotFlags)
	}
	c.releaseTCP(cn, true)
	return nil
}

// exchangeTCP writes one request envelope and reads its response on
// cn, handing the reply payload to decode. A non-nil *APIError is a
// server-side rejection (error envelope); err covers transport,
// framing and decode failures, after which the caller must close the
// connection.
func (c *Client) exchangeTCP(cn *tcpConn, flags byte, payload []byte, tc obs.TraceContext, decode func([]byte) error) (*APIError, error) {
	if err := cn.nc.SetDeadline(time.Now().Add(c.cfg.RequestTimeout)); err != nil {
		return nil, err
	}
	cn.nextID++
	id := cn.nextID
	var prefix []byte
	if tc.Valid() {
		// A sampled decision slides its 16-byte trace context ahead of
		// the frame under StreamFlagTrace; the envelope writer splices
		// the two parts without an intermediate concatenation.
		flags |= wire.StreamFlagTrace
		prefix = tc.AppendWire(cn.tcbuf[:0])
	}
	if err := cn.st.WriteEnvelopeParts(id, flags, prefix, payload); err != nil {
		return nil, err
	}
	gotID, gotFlags, body, err := cn.st.ReadEnvelope(maxTCPResponseBytes)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		// A response for a request this connection did not just send
		// means the stream is desynchronized; only a close recovers.
		return nil, fmt.Errorf("client: tcp response id %d for request %d", gotID, id)
	}
	if gotFlags&wire.StreamFlagError != 0 {
		return &APIError{Status: 400, Body: string(body)}, nil
	}
	return nil, decode(body)
}
