package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"steghide"
)

// syncWriter serializes slog output from concurrent connections.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func opsGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestOpsEndpointEndToEnd exercises the whole observability plane
// the way an operator meets it: a metrics-instrumented stack served
// by NewServer with the ops endpoint up, real client traffic
// through the wire, then /healthz and /metrics — and
// the privacy contract checked against the actual exposition and log
// output (hidden pathnames and passphrases must not appear).
func TestOpsEndpointEndToEnd(t *testing.T) {
	reg := steghide.NewMetrics()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("ops-e2e")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("ops-e2e-agent")),
		steghide.WithVolumeName("vault"),
		steghide.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.Metrics() != reg {
		t.Fatal("Stack.Metrics did not return the attached registry")
	}

	logs := &syncWriter{}
	srv, err := steghide.NewServer(steghide.ServerConfig{
		Addr:         "127.0.0.1:0",
		HTTPAddr:     "127.0.0.1:0",
		DrainTimeout: 2 * time.Second,
		Metrics:      reg,
		Logger:       slog.New(slog.NewTextHandler(logs, nil)),
	}, stack)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.HTTPAddr() == "" {
		t.Fatal("ops endpoint not started despite HTTPAddr")
	}

	// Healthy before any traffic.
	if code, body := opsGet(t, srv.HTTPAddr(), "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	// Real traffic: login, disclose a dummy, hide a file, read it back.
	ctx := context.Background()
	const (
		hiddenPath = "/secret-plans"
		passphrase = "alice-ops-passphrase"
	)
	fs, err := steghide.DialFS(ctx, srv.Addr(), "alice", passphrase, steghide.WithVolume("vault"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 128); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, hiddenPath); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("ops"), 200)
	if err := steghide.WriteFile(ctx, fs, hiddenPath, want); err != nil {
		t.Fatal(err)
	}
	got, err := steghide.ReadFile(ctx, fs, hiddenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch through instrumented stack")
	}

	// /metrics: Prometheus text with wire and scheduler families, the
	// volume label threaded through, and sessions counted.
	code, metrics := opsGet(t, srv.HTTPAddr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, wantLine := range []string{
		"steghide_wire_connections_total 1",
		`steghide_wire_logins_total{volume="vault"} 1`,
		`steghide_sched_data_updates_total{volume="vault"}`,
		`steghide_sessions{volume="vault"} 1`,
		"steghide_wire_active_connections 1",
		"steghide_wire_requests_total",
		"# TYPE steghide_sched_update_seconds histogram",
	} {
		if !strings.Contains(metrics, wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}

	// /metrics is the one exposition: there is no JSON twin.
	if code, _ := opsGet(t, srv.HTTPAddr(), "/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("/debug/vars = %d, want 404", code)
	}

	// Privacy contract: nothing secret in any operator-facing surface.
	logText := logs.String()
	for surface, text := range map[string]string{"metrics": metrics, "logs": logText} {
		for _, secret := range []string{"secret-plans", passphrase} {
			if strings.Contains(text, secret) {
				t.Errorf("%s surface leaks %q", surface, secret)
			}
		}
	}
	// And the lifecycle events that SHOULD be there, are.
	for _, wantEvent := range []string{
		"wire: connection accepted",
		"wire: hello negotiated",
		"wire: login",
		"volume=vault",
		"user=alice",
	} {
		if !strings.Contains(logText, wantEvent) {
			t.Errorf("lifecycle log missing %q", wantEvent)
		}
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain flips /healthz to 503. Shutdown the wire side directly so
	// the ops listener stays up to answer the probe — exactly the
	// load-balancer-removal window the endpoint exists for.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srv.Agent().Shutdown(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, body := opsGet(t, srv.HTTPAddr(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain = %d %q, want 503", code, body)
	}
	if _, m := opsGet(t, srv.HTTPAddr(), "/metrics"); !strings.Contains(m, "steghide_wire_draining 1") {
		t.Error("steghide_wire_draining gauge did not flip to 1")
	}
}

// TestOpsEndpointWithoutMetrics: the ops endpoint still serves
// health and pprof when no registry is attached; the metric routes
// say so instead of crashing.
func TestOpsEndpointWithoutMetrics(t *testing.T) {
	stack, err := steghide.Mount(steghide.NewMemDevice(256, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("ops-nometrics")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("ops-nometrics-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	srv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"}, stack)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := opsGet(t, srv.HTTPAddr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := opsGet(t, srv.HTTPAddr(), "/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without registry = %d, want 404", code)
	}
}

// TestServeListenerClosesOnRefusal pins the listener-ownership rule:
// ServeListener owns ln, so when it refuses the stacks (here a
// Construction-1 stack, which the agent protocol cannot serve) it
// closes ln instead of leaking it.
func TestServeListenerClosesOnRefusal(t *testing.T) {
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 1024),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("serve-c1")}),
		steghide.WithConstruction1([]byte("c1-secret")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := steghide.ServeListener(ln, stack); err == nil {
		t.Fatal("a Construction-1 stack was served")
	}
	// A leaked listener would block Accept; the deadline turns that
	// into a timeout error.
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second)); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after a refused ServeListener: want net.ErrClosed, got %v", err)
	}
}
