package server

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/wire"
)

// startTCP brings up the raw-TCP decision plane on loopback and
// returns the TCPServer plus its address.
func startTCP(t testing.TB, s *Server, cfg TCPConfig) (*TCPServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTCP(s, cfg)
	done := make(chan error, 1)
	go func() { done <- ts.Serve(ln) }()
	t.Cleanup(func() {
		ts.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ts, ln.Addr().String()
}

// dialStream dials the TCP plane and completes the hello exchange.
func dialStream(t testing.TB, addr string, enc wire.Encoding) (net.Conn, *wire.Stream) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	st := wire.NewStream(nc)
	if err := st.WriteClientHello(enc); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadServerHello()
	if err != nil {
		t.Fatal(err)
	}
	if got != enc {
		t.Fatalf("server negotiated %v, want %v", got, enc)
	}
	return nc, st
}

// roundTripTCP sends one request envelope and decodes the reply.
func roundTripTCP(t testing.TB, st *wire.Stream, enc wire.Encoding, id uint32, req *wire.Request, lookup bool, resp *wire.Response) {
	t.Helper()
	frame, err := req.Append(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var flags byte
	if lookup {
		flags = wire.StreamFlagLookup
	}
	if err := st.WriteEnvelope(id, flags, frame); err != nil {
		t.Fatal(err)
	}
	gotID, gotFlags, payload, err := st.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("response id %d, want %d", gotID, id)
	}
	if gotFlags&wire.StreamFlagError != 0 {
		t.Fatalf("error envelope: %s", payload)
	}
	if err := resp.Decode(enc, payload); err != nil {
		t.Fatal(err)
	}
}

// TestTCPEndToEnd pins that the TCP plane serves the same decisions
// as the HTTP plane, in both encodings, with request errors answered
// as error envelopes that leave the connection usable.
func TestTCPEndToEnd(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)

	for _, enc := range []wire.Encoding{wire.EncodingBinary, wire.EncodingJSON} {
		_, st := dialStream(t, addr, enc)
		var req wire.Request
		var resp wire.Response

		// Lookup hit.
		req.Reset()
		req.AppendRow(sig)
		roundTripTCP(t, st, enc, 1, &req, true, &resp)
		if len(resp.Results) != 1 || !resp.Results[0].Hit {
			t.Fatalf("enc %v: lookup results %+v, want one hit", enc, resp.Results)
		}
		if resp.Version == 0 {
			t.Fatalf("enc %v: response version 0", enc)
		}

		// Classify.
		req.Reset()
		req.AppendRow(sig)
		roundTripTCP(t, st, enc, 2, &req, false, &resp)
		if len(resp.Results) != 1 || resp.Results[0].Class < 0 {
			t.Fatalf("enc %v: classify results %+v", enc, resp.Results)
		}

		// Bad request (wrong width) → error envelope, connection stays.
		req.Reset()
		req.AppendRow([]float64{1, 2})
		frame, err := req.Append(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteEnvelope(3, wire.StreamFlagLookup, frame); err != nil {
			t.Fatal(err)
		}
		id, flags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if id != 3 || flags&wire.StreamFlagError == 0 {
			t.Fatalf("want error envelope for id 3, got id=%d flags=%d", id, flags)
		}
		if !strings.Contains(string(payload), "values") {
			t.Fatalf("error message %q", payload)
		}

		// Connection survived the error.
		req.Reset()
		req.AppendRow(sig)
		roundTripTCP(t, st, enc, 4, &req, true, &resp)
		if len(resp.Results) != 1 {
			t.Fatalf("enc %v: post-error lookup results %+v", enc, resp.Results)
		}
	}
	if got := s.badRequests.Load(); got != 2 {
		t.Errorf("badRequests = %d, want 2 (one bad width per encoding)", got)
	}
}

// TestTCPPipelining pins the request-id contract: a client may write
// many envelopes before reading, and each response names the request
// it answers.
func TestTCPPipelining(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	_, st := dialStream(t, addr, wire.EncodingBinary)

	const n = 16
	var req wire.Request
	req.Reset()
	req.AppendRow(sig)
	frame, err := req.Append(wire.EncodingBinary, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.WriteEnvelope(uint32(1000+i), wire.StreamFlagLookup, frame); err != nil {
			t.Fatal(err)
		}
	}
	var resp wire.Response
	for i := 0; i < n; i++ {
		id, flags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if id != uint32(1000+i) {
			t.Fatalf("response %d has id %d, want %d", i, id, 1000+i)
		}
		if flags&wire.StreamFlagError != 0 {
			t.Fatalf("response %d: error envelope %s", i, payload)
		}
		if err := resp.Decode(wire.EncodingBinary, payload); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || !resp.Results[0].Hit {
			t.Fatalf("response %d: %+v", i, resp.Results)
		}
	}
}

// TestTCPRejectsForeignProtocol pins that an HTTP request hitting the
// TCP port is dropped at the hello, counted as a bad request.
func TestTCPRejectsForeignProtocol(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("POST /v1/lookup HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Server closes without a hello of its own.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("read %d bytes, want closed connection", n)
	}
	if got := s.badRequests.Load(); got != 1 {
		t.Errorf("badRequests = %d, want 1", got)
	}
}

// TestTCPAccepters pins that multiple accept loops (per-core accept
// sharding) all serve and that Close drains live connections.
func TestTCPAccepters(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr := startTCP(t, s, TCPConfig{Accepters: 4})
	sig := foreseenSignature(t, repo, 2, 220)

	const conns = 8
	streams := make([]*wire.Stream, conns)
	for i := range streams {
		_, streams[i] = dialStream(t, addr, wire.EncodingBinary)
	}
	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	for i, st := range streams {
		roundTripTCP(t, st, wire.EncodingBinary, uint32(i), &req, true, &resp)
		if len(resp.Results) != 1 {
			t.Fatalf("conn %d: %+v", i, resp.Results)
		}
	}
	if got := ts.Conns(); got != conns {
		t.Errorf("Conns() = %d, want %d", got, conns)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close every stream is dead.
	if _, _, _, err := streams[0].ReadEnvelope(1 << 20); err == nil {
		t.Error("read on closed server succeeded")
	}
}

// TestTCPDecideZeroAlloc pins the acceptance bar: a warmed
// client+server round trip over real TCP — encode, envelope write,
// server decode/decide/encode, envelope read, decode — allocates
// nothing on either side. AllocsPerRun counts mallocs across all
// goroutines, so the server's connection goroutine is inside the
// measurement.
func TestTCPDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	_, st := dialStream(t, addr, wire.EncodingBinary)

	var req wire.Request
	for i := 0; i < 16; i++ {
		req.AppendRow(sig)
	}
	var frame []byte
	var resp wire.Response
	var id uint32
	roundTrip := func() {
		id++
		var err error
		frame, err = req.Append(wire.EncodingBinary, frame[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteEnvelope(id, wire.StreamFlagLookup, frame); err != nil {
			t.Fatal(err)
		}
		gotID, flags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || flags&wire.StreamFlagError != 0 {
			t.Fatalf("id=%d flags=%d", gotID, flags)
		}
		if err := resp.Decode(wire.EncodingBinary, payload); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 16 {
			t.Fatalf("results %d", len(resp.Results))
		}
	}
	for i := 0; i < 5; i++ {
		roundTrip() // warm scratch on both sides
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("TCP decide round trip allocates %.1f times, want 0", allocs)
	}
}

// entryTCP sends one get or put envelope built from e and returns the
// reply's flags and payload (a copy: the stream reuses its scratch).
func entryTCP(t testing.TB, st *wire.Stream, enc wire.Encoding, id uint32, flags byte, e *wire.Entry) (byte, []byte) {
	t.Helper()
	if err := st.WriteEnvelope(id, flags, e.AppendRequest(enc, flags&wire.StreamFlagPut != 0, nil)); err != nil {
		t.Fatal(err)
	}
	gotID, gotFlags, payload, err := st.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("response id %d, want %d", gotID, id)
	}
	return gotFlags, append([]byte(nil), payload...)
}

// TestTCPGetPut pins the repository get/put operations on the TCP
// plane in both encodings: a put lands in the repository, a get by
// (class, bucket) reads it back, the JSON reply is byte-identical to
// the HTTP endpoint's, errors are answered with error envelopes on a
// connection that stays up, and get/put count in their own request
// counters, never in the decide-latency histograms.
func TestTCPGetPut(t *testing.T) {
	repo := testRepository(t, 1)
	s, ts := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	tpl := s.templates.Load().def

	for i, enc := range []wire.Encoding{wire.EncodingBinary, wire.EncodingJSON} {
		_, st := dialStream(t, addr, enc)
		bucket := 5 + i
		var e wire.Entry
		e.Class, e.Bucket, e.Type, e.Count = 0, bucket, cloud.LargeID, 3
		flags, payload := entryTCP(t, st, enc, 1, wire.StreamFlagPut, &e)
		if flags&wire.StreamFlagError != 0 {
			t.Fatalf("enc %v: put rejected: %s", enc, payload)
		}
		if err := e.DecodeReply(enc, true, payload); err != nil {
			t.Fatal(err)
		}
		if e.Version != 1 || e.Entries != repo.Len() {
			t.Errorf("enc %v: put reply %+v, want version 1 and %d entries", enc, e, repo.Len())
		}
		if a, ok := repo.Get(0, bucket); !ok || a.Type != cloud.Large || a.Count != 3 {
			t.Fatalf("enc %v: repository holds %+v/%v after the put", enc, a, ok)
		}

		// The lookup bit does not turn a get into a decision.
		e.Reset()
		e.Bucket = bucket
		flags, payload = entryTCP(t, st, enc, 2, wire.StreamFlagGet|wire.StreamFlagLookup, &e)
		if flags&wire.StreamFlagError != 0 {
			t.Fatalf("enc %v: get rejected: %s", enc, payload)
		}
		if err := e.DecodeReply(enc, false, payload); err != nil {
			t.Fatal(err)
		}
		if !e.Hit || e.Type != cloud.LargeID || e.Count != 3 || e.Version != 1 {
			t.Errorf("enc %v: get reply %+v, want the stored large×3", enc, e)
		}
		if enc == wire.EncodingJSON {
			code, body := post(t, ts.URL+"/v1/get", fmt.Sprintf(`{"class":0,"bucket":%d}`, bucket))
			if code != http.StatusOK || body != string(payload) {
				t.Errorf("HTTP /v1/get answered %d %q, TCP %q", code, body, payload)
			}
		}

		e.Reset()
		e.Bucket = 17
		_, payload = entryTCP(t, st, enc, 3, wire.StreamFlagGet, &e)
		if err := e.DecodeReply(enc, false, payload); err != nil || e.Hit {
			t.Errorf("enc %v: get of an empty slot: %+v, %v", enc, e, err)
		}

		// Rejections: a class the repository does not have, and an
		// envelope flagged both get and put.
		e.Reset()
		e.Class, e.Type, e.Count = 999, cloud.LargeID, 1
		if flags, payload = entryTCP(t, st, enc, 4, wire.StreamFlagPut, &e); flags&wire.StreamFlagError == 0 {
			t.Errorf("enc %v: out-of-range put answered %q, want an error envelope", enc, payload)
		}
		if flags, payload = entryTCP(t, st, enc, 5, wire.StreamFlagGet|wire.StreamFlagPut, &e); flags&wire.StreamFlagError == 0 {
			t.Errorf("enc %v: get+put envelope answered %q, want an error envelope", enc, payload)
		}
		e.Reset()
		e.Bucket = bucket
		if flags, _ = entryTCP(t, st, enc, 6, wire.StreamFlagGet, &e); flags&wire.StreamFlagError != 0 {
			t.Errorf("enc %v: connection unusable after a rejected request", enc)
		}
	}
	st := s.StatsSnapshot()
	if st.PutReqs != 4 || st.GetReqs != 7 || st.BadRequests != 4 {
		t.Errorf("counters put=%d get=%d bad=%d, want 4, 7, 4", st.PutReqs, st.GetReqs, st.BadRequests)
	}
	if n := tpl.lat[transportTCP].Snapshot().Count; n != 0 {
		t.Errorf("TCP decide histogram recorded %d get/put requests, want 0", n)
	}
}

// TestTCPEntryZeroAlloc pins the TCP get/put branch of serveConn at
// zero allocations: a warmed binary put over an existing slot and a
// get, each a full envelope round trip. AllocsPerRun counts every
// goroutine, so the server's connection goroutine is inside the
// measurement.
func TestTCPEntryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	_, st := dialStream(t, addr, wire.EncodingBinary)

	var e wire.Entry
	var frame []byte
	var id uint32
	roundTrip := func(put bool) {
		id++
		flags := byte(wire.StreamFlagGet)
		if put {
			flags = wire.StreamFlagPut
		}
		e.Reset()
		e.Class, e.Bucket, e.Type, e.Count = 0, 4, cloud.LargeID, 2
		frame = e.AppendRequest(wire.EncodingBinary, put, frame[:0])
		if err := st.WriteEnvelope(id, flags, frame); err != nil {
			t.Fatal(err)
		}
		gotID, gotFlags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || gotFlags&wire.StreamFlagError != 0 {
			t.Fatalf("id=%d flags=%d payload %q", gotID, gotFlags, payload)
		}
		if err := e.DecodeReply(wire.EncodingBinary, put, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		roundTrip(true)
		roundTrip(false)
	}
	if !e.Hit {
		t.Fatal("get missed the stored slot")
	}
	for _, put := range []bool{true, false} {
		if allocs := testing.AllocsPerRun(200, func() { roundTrip(put) }); allocs != 0 {
			t.Errorf("TCP put=%v round trip allocates %.1f times, want 0", put, allocs)
		}
	}
}
