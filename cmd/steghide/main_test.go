package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"steghide"
)

// buildBinary compiles the CLI once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "steghide-cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIFormat(t *testing.T) {
	bin := buildBinary(t)
	img := filepath.Join(t.TempDir(), "vol.img")
	out, err := exec.Command(bin, "format", "-img", img, "-blocks", "64", "-bs", "512").CombinedOutput()
	if err != nil {
		t.Fatalf("format: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "formatted") {
		t.Fatalf("unexpected output: %s", out)
	}
	st, err := os.Stat(img)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 64*512 {
		t.Fatalf("image size %d", st.Size())
	}
	// Formatting twice must succeed (truncate + refill).
	if out, err := exec.Command(bin, "format", "-img", img, "-blocks", "64", "-bs", "512").CombinedOutput(); err != nil {
		t.Fatalf("re-format: %v\n%s", err, out)
	}
}

func TestCLIUsageAndErrors(t *testing.T) {
	bin := buildBinary(t)
	// No args → usage, exit 2.
	cmd := exec.Command(bin)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("no-arg invocation succeeded")
	}
	if !strings.Contains(string(out), "usage:") {
		t.Fatalf("no usage printed: %s", out)
	}
	// Unknown subcommand.
	if out, err := exec.Command(bin, "frobnicate").CombinedOutput(); err == nil {
		t.Fatalf("unknown subcommand accepted: %s", out)
	}
	// Client without credentials.
	if out, err := exec.Command(bin, "client", "get", "/x").CombinedOutput(); err == nil {
		t.Fatalf("client without -user accepted: %s", out)
	}
	// Help exits cleanly.
	if out, err := exec.Command(bin, "help").CombinedOutput(); err != nil {
		t.Fatalf("help failed: %v\n%s", err, out)
	}
}

func TestCLIStorageOpensFormattedImage(t *testing.T) {
	// Not a daemon test: just verify the storage subcommand validates
	// its image before serving by pointing it at a missing file.
	bin := buildBinary(t)
	out, err := exec.Command(bin, "storage", "-img", filepath.Join(t.TempDir(), "missing.img")).CombinedOutput()
	if err == nil {
		t.Fatalf("missing image accepted: %s", out)
	}
}

// daemonProc is a CLI daemon under test with line-scanned stdout.
type daemonProc struct {
	cmd   *exec.Cmd
	lines chan string
}

func startDaemon(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	d := &daemonProc{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	})
	return d
}

// waitLine blocks until the daemon prints a line containing substr.
func (d *daemonProc) waitLine(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				t.Fatalf("daemon exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timeout waiting for %q", substr)
		}
	}
}

// TestCLIAgentOpsEndpoint boots the full storage → agent daemon pair
// from the built binary with -http and scrapes the ops endpoint the
// way a monitoring system would.
func TestCLIAgentOpsEndpoint(t *testing.T) {
	bin := buildBinary(t)
	img := filepath.Join(t.TempDir(), "vol.img")
	if out, err := exec.Command(bin, "format", "-img", img, "-blocks", "128", "-bs", "1024").CombinedOutput(); err != nil {
		t.Fatalf("format: %v\n%s", err, out)
	}

	storage := startDaemon(t, bin, "storage", "-img", img, "-bs", "1024", "-addr", "127.0.0.1:0")
	line := storage.waitLine(t, "storage: serving")
	storageAddr := line[strings.LastIndex(line, " on ")+len(" on "):]

	agent := startDaemon(t, bin, "agent",
		"-storage", storageAddr, "-addr", "127.0.0.1:0",
		"-http", "127.0.0.1:0", "-dummy-interval", "20ms")
	line = agent.waitLine(t, "agent: ops on http://")
	opsAddr := strings.TrimPrefix(line, "agent: ops on http://")
	opsAddr = opsAddr[:strings.Index(opsAddr, " ")]

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + opsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Let the dummy daemon issue a few updates, then scrape.
	time.Sleep(150 * time.Millisecond)
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"steghide_daemon_issued_total",
		"steghide_sched_dummy_updates_total",
		"steghide_wire_active_connections",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestCLIClient drives the client subcommand against an agent daemon
// serving a default and a named volume: -ping, put then get as two
// logins on the named volume, -cluster over one shard, and a dead
// -agent whose -fallback takes the session.
func TestCLIClient(t *testing.T) {
	bin := buildBinary(t)
	var storage []string
	for _, name := range []string{"default.img", "work.img"} {
		img := filepath.Join(t.TempDir(), name)
		if out, err := exec.Command(bin, "format", "-img", img, "-blocks", "512", "-bs", "1024").CombinedOutput(); err != nil {
			t.Fatalf("format: %v\n%s", err, out)
		}
		line := startDaemon(t, bin, "storage", "-img", img, "-bs", "1024", "-addr", "127.0.0.1:0").waitLine(t, "storage: serving")
		storage = append(storage, line[strings.LastIndex(line, " on ")+len(" on "):])
	}
	line := startDaemon(t, bin, "agent", "-storage", storage[0], "-volume", "work="+storage[1],
		"-addr", "127.0.0.1:0", "-dummy-interval", "0").waitLine(t, "clients=")
	agent := line[strings.LastIndex(line, "clients=")+len("clients="):]

	client := func(stdin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"client"}, args...)...)
		cmd.Stdin = strings.NewReader(stdin)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("client %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	if out := client("", "-agent", agent, "-ping"); !strings.Contains(out, agent+" alive") {
		t.Fatalf("-ping printed %q", out)
	}

	// A one-shot put finds no relocation targets of its own: a session
	// held open here discloses cover on the work volume for it.
	ctx := context.Background()
	cover, err := steghide.DialFS(ctx, agent, "cover", "pw", steghide.WithVolume("work"))
	if err != nil {
		t.Fatal(err)
	}
	defer cover.Close()
	if err := cover.CreateDummy(ctx, "/cover", 128); err != nil {
		t.Fatal(err)
	}
	const secret = "meet at the usual place"
	client(secret, "-agent", agent, "-volume", "work", "-user", "alice", "-pass", "pw", "put", "/doc")
	if out := client("", "-agent", agent, "-volume", "work", "-user", "alice", "-pass", "pw", "get", "/doc"); out != secret {
		t.Fatalf("get on the work volume printed %q, want %q", out, secret)
	}

	if out := client("", "-cluster", agent, "-user", "bob", "-pass", "pw", "mkdummy", "/c", "16"); !strings.Contains(out, "dummy /c: 16 blocks") {
		t.Fatalf("-cluster mkdummy printed %q", out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if out := client("", "-agent", dead, "-fallback", agent, "-volume", "work", "-user", "alice", "-pass", "pw", "get", "/doc"); out != secret {
		t.Fatalf("get through the fallback printed %q, want %q", out, secret)
	}
}
