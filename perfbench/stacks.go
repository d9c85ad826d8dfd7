package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// daemon is an in-process dejavud: the HTTP admin/decision plane and
// the raw-TCP decision plane over one server.Server, both on loopback.
type daemon struct {
	srv     *server.Server
	tcp     *server.TCPServer
	hs      *http.Server
	addr    string // HTTP host:port
	tcpAddr string
	done    chan error // one result per Serve goroutine
}

// startDaemon serves templates (nil: install-only) on fresh loopback
// ports.
func startDaemon(templates map[string]*core.Handle) (*daemon, error) {
	srv, err := server.New(server.Config{Templates: templates})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, err
	}
	d := &daemon{
		srv:     srv,
		tcp:     server.NewTCP(srv, server.TCPConfig{}),
		hs:      &http.Server{Handler: srv.Handler()},
		addr:    ln.Addr().String(),
		tcpAddr: tcpLn.Addr().String(),
		done:    make(chan error, 2),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	go func() { d.done <- d.tcp.Serve(tcpLn) }()
	return d, nil
}

// close stops both planes and waits for their serve loops to return.
func (d *daemon) close() error {
	herr := d.hs.Close()
	terr := d.tcp.Close()
	var errs []error
	for i := 0; i < 2; i++ {
		if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) && !isClosedConn(err) {
			errs = append(errs, err)
		}
	}
	return errors.Join(append(errs, herr, terr)...)
}

// isClosedConn reports the errors a serve loop returns when its
// listener was closed on purpose — including a TCP plane closed before
// its Serve goroutine got to register the listener.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || strings.Contains(err.Error(), "use of closed network connection") ||
		strings.Contains(err.Error(), "tcp listener is closed")
}

// decideTotals reads the daemon's own decide-latency histograms, the
// ones its /metrics page exposes, and returns the number of raw-TCP
// decision requests served and their summed decide time (decode,
// route, lookup, encode; the socket reads and writes excluded).
func (d *daemon) decideTotals() (count int64, sum time.Duration, err error) {
	const name = "dejavud_decide_latency_seconds"
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.Contains(line, `transport="tcp"`) {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, name+"_sum{"):
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return 0, 0, err
			}
			sum += time.Duration(v * 1e9)
		case strings.HasPrefix(line, name+"_count{"):
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				return 0, 0, err
			}
			count += v
		}
	}
	return count, sum, nil
}

// tierReplicas is the replicated tier's size.
const tierReplicas = 3

// tier is a decision front over a registry of tierReplicas daemons,
// decisions riding each replica's raw-TCP plane.
type tier struct {
	replicas []*daemon
	reg      *replica.Registry
	front    *proxy.DecisionFront
	hs       *http.Server
	addr     string
	done     chan error
}

func startTier() (t *tier, err error) {
	t = &tier{done: make(chan error, 1)}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	specs := make([]replica.Spec, 0, tierReplicas)
	for i := 0; i < tierReplicas; i++ {
		d, err := startDaemon(nil)
		if err != nil {
			return t, err
		}
		t.replicas = append(t.replicas, d)
		specs = append(specs, replica.Spec{Name: fmt.Sprintf("r%d", i), Addr: d.addr, TCPAddr: d.tcpAddr})
	}
	if t.reg, err = replica.New(replica.Config{Replicas: specs, Encoding: wire.EncodingBinary}); err != nil {
		return t, err
	}
	if t.front, err = proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: t.reg}); err != nil {
		return t, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	t.hs = &http.Server{Handler: t.front.Handler()}
	t.addr = ln.Addr().String()
	go func() { t.done <- t.hs.Serve(ln) }()
	return t, nil
}

// close tears the tier down front first, then the registry, then the
// replicas.
func (t *tier) close() error {
	var errs []error
	if t.hs != nil {
		errs = append(errs, t.hs.Close())
		if err := <-t.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if t.front != nil {
		t.front.Close()
	}
	if t.reg != nil {
		t.reg.Close()
	}
	for _, d := range t.replicas {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// remoteClient is the fleet's decision client for one stack.
func remoteClient(cfg client.Config, workers int) (*client.Client, error) {
	cfg.Encoding = wire.EncodingBinary
	cfg.MaxIdleConns = workers
	return client.New(cfg)
}
