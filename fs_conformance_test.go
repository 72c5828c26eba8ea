package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"testing"

	"steghide"
	isteg "steghide/internal/steghide"
)

// metricsOptsFromEnv honours the STEGHIDE_METRICS knob the CI matrix
// sets: with STEGHIDE_METRICS=1 every conformance fixture mounts with
// a live metric registry attached, so the whole contract suite
// doubles as an instrumentation soak — identical behavior required
// with the observability plane on.
func metricsOptsFromEnv(base ...steghide.Option) []steghide.Option {
	if os.Getenv("STEGHIDE_METRICS") != "1" {
		return base
	}
	return append(base, steghide.WithMetrics(steghide.NewMetrics()))
}

// fsFixture builds one FS implementation and hands back a cleanup.
type fsFixture struct {
	name string
	// deniable reports whether CreateDummy/dummy-aware Disclose are
	// part of this construction's contract (Construction 2 surfaces).
	deniable bool
	// writeThrough marks the oblivious composition, whose handle writes
	// are issued at once (each is repeated into the cache, §5.1.2)
	// instead of waiting in the file's open run.
	writeThrough bool
	// open builds the whole stack and returns a ready FS with a probe
	// into the stacks behind it. The FS of Construction-2 surfaces has
	// a dummy file disclosed already, so relocation targets exist; C1
	// surfaces have free-space dummies by construction.
	open func(t *testing.T) (steghide.FS, fsProbe)
}

// fsProbe is what a conformance row may know of the stacks behind an
// FS without going through it.
type fsProbe struct {
	payload int // bytes per block
	// updates is the Figure-6 data updates the stacks have made so far:
	// the count that tells a staged write from an issued one.
	updates func() uint64
}

// probeOf builds the probe of a fixture served by stacks.
func probeOf(stacks ...*steghide.Stack) fsProbe {
	return fsProbe{
		payload: stacks[0].Volume().PayloadSize(),
		updates: func() (n uint64) {
			for _, st := range stacks {
				if a := st.Agent2(); a != nil {
					n += a.Stats().DataUpdates
				} else {
					n += st.Agent1().Stats().DataUpdates
				}
			}
			return n
		},
	}
}

// newC2Fixture mounts a Construction-2 stack and logs one user in.
func newC2Fixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conf-c2")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("conf-c2-agent")))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	fs, err := stack.Login("alice", "alice-pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(context.Background(), "/cover", 256); err != nil {
		t.Fatal(err)
	}
	return fs, probeOf(stack)
}

// newC1Fixture mounts a Construction-1 stack.
func newC1Fixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conf-c1")}),
		steghide.WithConstruction1([]byte("conf-c1-secret")),
		steghide.WithSeed([]byte("conf-c1-agent")))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	fs, err := stack.Login("alice", "alice-locator")
	if err != nil {
		t.Fatal(err)
	}
	return fs, probeOf(stack)
}

// newWireFixture serves a Construction-2 stack over TCP and dials it.
func newWireFixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conf-wire")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("conf-wire-agent")))...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0"}, stack)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		stack.Close()
	})
	fs, err := steghide.DialFS(context.Background(), srv.Addr(), "alice", "alice-pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(context.Background(), "/cover", 256); err != nil {
		t.Fatal(err)
	}
	return fs, probeOf(stack)
}

// newObliviousFixture mounts Construction 1 with the read-hiding
// cache in front.
func newObliviousFixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conf-obli")}),
		steghide.WithConstruction1([]byte("conf-obli-secret")),
		steghide.WithObliviousCache(16, 5), // caches up to 256 distinct blocks
		steghide.WithSeed([]byte("conf-obli-agent")))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	fs, err := stack.Login("alice", "alice-locator")
	if err != nil {
		t.Fatal(err)
	}
	return fs, probeOf(stack)
}

// newWireRetryFixture is newWireFixture with the self-healing client:
// the whole conformance contract must hold unchanged when the retry
// layer sits between the FS and the wire.
func newWireRetryFixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conf-retry")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("conf-retry-agent")))...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0"}, stack)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		stack.Close()
	})
	fs, err := steghide.DialFS(context.Background(), srv.Addr(), "alice", "alice-pass",
		steghide.WithRetry(steghide.RetryPolicy{JitterSeed: 17}))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(context.Background(), "/cover", 256); err != nil {
		t.Fatal(err)
	}
	return fs, probeOf(stack)
}

// newClusterFixture serves three independent shard daemons and dials
// them as one Cluster: a sharded fleet must satisfy the same contract
// as any single-volume surface.
func newClusterFixture(t *testing.T) (steghide.FS, fsProbe) {
	t.Helper()
	var addrs []string
	var stacks []*steghide.Stack
	for i := 0; i < 3; i++ {
		seed := []byte{byte('A' + i)}
		stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), metricsOptsFromEnv(
			steghide.WithFormat(steghide.FormatOptions{FillSeed: append([]byte("conf-shard"), seed...)}),
			steghide.WithConstruction2(),
			steghide.WithSeed(append([]byte("conf-shard-agent"), seed...)))...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0"}, stack)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			stack.Close()
		})
		addrs = append(addrs, srv.Addr())
		stacks = append(stacks, stack)
	}
	cl, err := steghide.DialClusterFS(context.Background(), addrs, "alice", "alice-pass")
	if err != nil {
		t.Fatal(err)
	}
	// Every shard needs its own relocation cover before files land: a
	// run withdraws all its relocation targets before any vacated block
	// comes back, so the cover outsizes the largest file plus one run.
	if err := cl.CoverAll(context.Background(), "/cover", 256); err != nil {
		t.Fatal(err)
	}
	return cl, probeOf(stacks...)
}

func fsFixtures() []fsFixture {
	return []fsFixture{
		{name: "c2-session", deniable: true, open: newC2Fixture},
		{name: "c1-agent", deniable: false, open: newC1Fixture},
		{name: "wire-client", deniable: true, open: newWireFixture},
		{name: "wire-retry", deniable: true, open: newWireRetryFixture},
		{name: "oblivious", deniable: false, writeThrough: true, open: newObliviousFixture},
		{name: "cluster", deniable: true, open: newClusterFixture},
	}
}

// TestFSConformance runs the same contract against all four
// implementations of the unified FS: the paper's §3.2 model has one
// request surface, so no behavior may depend on which front-end a
// caller picked.
func TestFSConformance(t *testing.T) {
	for _, fx := range fsFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			fs, _ := fx.open(t)
			defer fs.Close()

			// Create, write, save, read back.
			if err := fs.Create(ctx, "/doc"); err != nil {
				t.Fatalf("create: %v", err)
			}
			// Double-create is the same typed error on every surface —
			// the wire included — so a retry can tell "already there".
			if err := fs.Create(ctx, "/doc"); !errors.Is(err, isteg.ErrExists) {
				t.Fatalf("double create: want ErrExists, got %v", err)
			}
			secret := bytes.Repeat([]byte("the hidden payload "), 40)
			w, err := fs.OpenWrite(ctx, "/doc")
			if err != nil {
				t.Fatalf("openwrite: %v", err)
			}
			if n, err := w.WriteAt(secret, 0); err != nil || n != len(secret) {
				t.Fatalf("writeat: n=%d err=%v", n, err)
			}
			if err := w.Close(); err != nil { // saves the block map
				t.Fatalf("write close: %v", err)
			}
			r, err := fs.OpenRead(ctx, "/doc")
			if err != nil {
				t.Fatalf("openread: %v", err)
			}
			got := make([]byte, len(secret))
			if _, err := r.ReadAt(got, 0); err != nil {
				t.Fatalf("readat: %v", err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatal("content mismatch after save/read")
			}
			// Offset read + io.EOF on short read, per io.ReaderAt.
			tail := make([]byte, len(secret))
			n, err := r.ReadAt(tail, 7)
			if !errors.Is(err, io.EOF) {
				t.Fatalf("short read: want io.EOF, got %v", err)
			}
			if n != len(secret)-7 || !bytes.Equal(tail[:n], secret[7:]) {
				t.Fatalf("offset read mismatch (n=%d)", n)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("read close: %v", err)
			}

			// Negative offsets are rejected.
			if _, err := r.ReadAt(got, -1); err == nil {
				t.Fatal("negative ReadAt offset accepted")
			}

			// WriteFile has replace semantics: a shorter rewrite must
			// not leave the previous tail behind (Truncate contract).
			if err := steghide.WriteFile(ctx, fs, "/doc", []byte("short")); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			back, err := steghide.ReadFile(ctx, fs, "/doc")
			if err != nil || string(back) != "short" {
				t.Fatalf("rewrite read back %q err=%v — old tail must not survive", back, err)
			}
			if info, err := fs.Stat(ctx, "/doc"); err != nil || info.Size != 5 {
				t.Fatalf("stat after truncating rewrite: %+v err=%v", info, err)
			}
			if err := steghide.WriteFile(ctx, fs, "/doc", secret); err != nil {
				t.Fatalf("regrow: %v", err)
			}
			if back, err = steghide.ReadFile(ctx, fs, "/doc"); err != nil || !bytes.Equal(back, secret) {
				t.Fatalf("regrow after shrink corrupted content (err=%v) — stale cache?", err)
			}

			// Stat and Disclose agree with what was written.
			info, err := fs.Stat(ctx, "/doc")
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			if info.Size != uint64(len(secret)) || info.Dummy {
				t.Fatalf("stat: %+v", info)
			}
			if info, err = fs.Disclose(ctx, "/doc"); err != nil || info.Dummy {
				t.Fatalf("disclose: %+v err=%v", info, err)
			}

			// Listings are sorted and stable.
			if err := fs.Create(ctx, "/b"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create(ctx, "/a"); err != nil {
				t.Fatal(err)
			}
			paths, err := fs.List(ctx)
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			if !sort.StringsAreSorted(paths) {
				t.Fatalf("unsorted listing: %v", paths)
			}
			if want := []string{"/a", "/b", "/doc"}; !equalStrings(paths, want) {
				t.Fatalf("listing %v, want %v", paths, want)
			}

			// Delete removes the file from the listing and from disk.
			if err := fs.Delete(ctx, "/b"); err != nil {
				t.Fatalf("delete: %v", err)
			}
			paths, err = fs.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"/a", "/doc"}; !equalStrings(paths, want) {
				t.Fatalf("listing after delete %v, want %v", paths, want)
			}
			// Delete is unlink-like: no prior open required, and a
			// missing path reports ErrNotFound.
			if err := fs.Delete(ctx, "/never-existed"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("delete missing: want ErrNotFound, got %v", err)
			}

			// Error taxonomy: a missing file (or wrong key — the same
			// thing, by design) is ErrNotFound and a *steghide.PathError
			// on every surface, including across the wire.
			_, err = fs.OpenRead(ctx, "/no-such-file")
			if !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("open missing: want ErrNotFound, got %v", err)
			}
			var pe *steghide.PathError
			if !errors.As(err, &pe) {
				t.Fatalf("open missing: want *PathError, got %T", err)
			}
			if pe.Path != "/no-such-file" || pe.Op == "" {
				t.Fatalf("PathError fields: %+v", pe)
			}
			if _, err := fs.Stat(ctx, "/also-missing"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("stat missing: want ErrNotFound, got %v", err)
			}

			// Deniability surface: constructions with user-visible dummy
			// files support CreateDummy + dummy-aware Disclose; the
			// others refuse with ErrUnsupported.
			if fx.deniable {
				if err := fs.CreateDummy(ctx, "/decoy", 16); err != nil {
					t.Fatalf("createdummy: %v", err)
				}
				info, err := fs.Disclose(ctx, "/decoy")
				if err != nil || !info.Dummy {
					t.Fatalf("disclose dummy: %+v err=%v", info, err)
				}
				// Content operations are defined on real files only: a
				// dummy's bytes are meaningless cover, so every surface
				// refuses with ErrUnsupported instead of handing out a
				// handle that cannot deliver.
				if _, err := fs.OpenRead(ctx, "/decoy"); !errors.Is(err, steghide.ErrUnsupported) {
					t.Fatalf("openread dummy: want ErrUnsupported, got %v", err)
				}
				if _, err := fs.OpenWrite(ctx, "/decoy"); !errors.Is(err, steghide.ErrUnsupported) {
					t.Fatalf("openwrite dummy: want ErrUnsupported, got %v", err)
				}
				if err := fs.Delete(ctx, "/decoy"); !errors.Is(err, steghide.ErrUnsupported) {
					t.Fatalf("delete dummy: want ErrUnsupported, got %v", err)
				}
			} else {
				err := fs.CreateDummy(ctx, "/decoy", 16)
				if !errors.Is(err, steghide.ErrUnsupported) {
					t.Fatalf("createdummy: want ErrUnsupported, got %v", err)
				}
			}

			// Context cancellation: an expired context aborts every
			// operation with the context's error, wrapped in the
			// taxonomy.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if err := fs.Create(cctx, "/cancelled"); !errors.Is(err, context.Canceled) {
				t.Fatalf("create cancelled: %v", err)
			}
			if _, err := fs.List(cctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("list cancelled: %v", err)
			}
			w2, err := fs.OpenWrite(ctx, "/doc")
			if err != nil {
				t.Fatal(err)
			}
			// A handle opened under a live context that then dies:
			// writes through it abort at the scheduler/wire wait point.
			w3, err := fs.OpenWrite(cctx, "/doc")
			if err == nil {
				if _, err := w3.WriteAt(secret, 0); !errors.Is(err, context.Canceled) {
					t.Fatalf("write under cancelled ctx: %v", err)
				}
			}
			if _, err := w2.WriteAt(secret[:16], 0); err != nil {
				t.Fatalf("live handle must keep working: %v", err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFSConformanceWriteBehind is the write-behind contract, the same
// on every surface: what a handle wrote is what every handle of the
// principal reads, what Stat sizes and what Truncate and Delete act on,
// before the Close that issues it; a run the scheduler refuses fails the
// Close that triggered it with the typed error and is still there for
// the Save that repeats it. How much reached the update stream is read
// off the stacks: nothing while fewer than 65 distinct blocks wait, the
// first 64 when the 65th arrives — except behind the oblivious cache,
// which issues each write at once and must read the same regardless.
func TestFSConformanceWriteBehind(t *testing.T) {
	for _, fx := range fsFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			fs, probe := fx.open(t)
			defer fs.Close()
			ps := probe.payload
			const blocks = 70
			base := bytes.Repeat([]byte("base."), blocks*ps/5+1)[:blocks*ps]
			if err := steghide.WriteFile(ctx, fs, "/wb", base); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(base)
			block := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, ps) }
			readBack := func(when string) {
				t.Helper()
				got, err := steghide.ReadFile(ctx, fs, "/wb")
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadFile differs from the model (len %d want %d, err=%v)", when, len(got), len(want), err)
				}
			}
			issued := func(before uint64, staged, writeThrough uint64, when string) {
				t.Helper()
				n := staged
				if fx.writeThrough {
					n = writeThrough
				}
				if got := probe.updates() - before; got != n {
					t.Fatalf("%s: %d data updates, want %d", when, got, n)
				}
			}

			// A staged block, a sub-block patch and an append are visible
			// through a second handle, to ReadFile and to Stat before Close.
			w, err := fs.OpenWrite(ctx, "/wb")
			if err != nil {
				t.Fatal(err)
			}
			before := probe.updates()
			copy(want[3*ps:], block('A'))
			if _, err := w.WriteAt(block('A'), int64(3*ps)); err != nil {
				t.Fatal(err)
			}
			copy(want[9*ps+7:], "patched")
			if _, err := w.WriteAt([]byte("patched"), int64(9*ps+7)); err != nil {
				t.Fatal(err)
			}
			want = append(want, "tail"...)
			if _, err := w.WriteAt([]byte("tail"), int64(blocks*ps)); err != nil {
				t.Fatal(err)
			}
			issued(before, 0, 3, "three staged writes")
			r, err := fs.OpenRead(ctx, "/wb")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 2*ps)
			if _, err := r.ReadAt(got, int64(3*ps-ps/2)); err != nil || !bytes.Equal(got, want[3*ps-ps/2:][:2*ps]) {
				t.Fatalf("second handle does not read the staged block (err=%v)", err)
			}
			readBack("before close")
			if info, err := fs.Stat(ctx, "/wb"); err != nil || info.Size != uint64(len(want)) {
				t.Fatalf("stat before close: %+v err=%v, want size %d", info, err, len(want))
			}
			issued(before, 0, 3, "reads and stat")

			// Truncate below a staged block drops it: regrown, the block
			// reads zeros, not what was staged.
			if _, err := w.WriteAt(block('B'), int64(60*ps)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(ctx, "/wb", uint64(50*ps)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(ctx, "/wb", uint64(blocks*ps)); err != nil {
				t.Fatal(err)
			}
			want = append(want[:50*ps], make([]byte, (blocks-50)*ps)...)
			readBack("after truncate and regrow")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			issued(before, 2, 4, "close of two staged blocks")
			readBack("after close")

			// The 65th distinct block issues the first 64.
			if w, err = fs.OpenWrite(ctx, "/wb"); err != nil {
				t.Fatal(err)
			}
			before = probe.updates()
			for li := 0; li < 65; li++ {
				if li == 64 {
					issued(before, 0, 64, "64 distinct blocks")
				}
				copy(want[li*ps:], block(byte('a'+li%26)))
				if _, err := w.WriteAt(block(byte('a'+li%26)), int64(li*ps)); err != nil {
					t.Fatal(err)
				}
			}
			issued(before, 64, 65, "the 65th block")
			readBack("with one run issued and one block staged")

			// A refused run: the handle's context dies before Close. The
			// Close fails typed, the Save under a live context converges.
			cctx, cancel := context.WithCancel(ctx)
			wc, err := fs.OpenWrite(cctx, "/wb")
			if err != nil {
				t.Fatal(err)
			}
			copy(want[5*ps:], block('C'))
			if _, err := wc.WriteAt(block('C'), int64(5*ps)); err != nil {
				t.Fatal(err)
			}
			cancel()
			err = wc.Close()
			var pe *steghide.PathError
			if !fx.writeThrough && (!errors.Is(err, context.Canceled) || !errors.As(err, &pe)) {
				t.Fatalf("close under a dead context: want a *PathError carrying context.Canceled, got %v", err)
			}
			readBack("after the refused close")
			if err := fs.Save(ctx, "/wb"); err != nil {
				t.Fatalf("save after the refused close: %v", err)
			}
			if err := fs.Save(ctx, "/wb"); err != nil {
				t.Fatalf("repeated save: %v", err)
			}
			issued(before, 66, 66, "the converged save")
			readBack("after the converged save")

			// Delete discards the run: nothing more is issued, and the
			// path is gone.
			if _, err := w.WriteAt(block('D'), int64(7*ps)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Delete(ctx, "/wb"); err != nil {
				t.Fatal(err)
			}
			issued(before, 66, 67, "delete over a staged block")
			if _, err := fs.OpenRead(ctx, "/wb"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("open after delete: want ErrNotFound, got %v", err)
			}

			// A truncate stages like a write: the rows below hold on every
			// surface, whether it is applied at once or rides the run.
			readPath := func(path string, want []byte, when string) {
				t.Helper()
				got, err := steghide.ReadFile(ctx, fs, path)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadFile differs from the model (len %d want %d, err=%v)", when, len(got), len(want), err)
				}
				if info, err := fs.Stat(ctx, path); err != nil || info.Size != uint64(len(want)) {
					t.Fatalf("%s: stat %+v err=%v, want size %d", when, info, err, len(want))
				}
			}

			// Truncate, then WriteAt past the new end, in one run: the
			// write lands behind the cut, with zeros between.
			if err := steghide.WriteFile(ctx, fs, "/tr", base[:20*ps]); err != nil {
				t.Fatal(err)
			}
			tw, err := fs.OpenWrite(ctx, "/tr")
			if err != nil {
				t.Fatal(err)
			}
			want = bytes.Clone(base[:10*ps])
			copy(want[2*ps:], block('E'))
			if _, err := tw.WriteAt(block('E'), int64(2*ps)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(ctx, "/tr", uint64(10*ps)); err != nil {
				t.Fatal(err)
			}
			if _, err := tw.WriteAt(block('F'), int64(12*ps)); err != nil {
				t.Fatal(err)
			}
			want = append(append(want, make([]byte, 12*ps-len(want))...), block('F')...)
			readPath("/tr", want, "truncate then write past the new end")
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			readPath("/tr", want, "after the close")

			// A shrinking WriteFile leaves no old tail.
			if err := steghide.WriteFile(ctx, fs, "/tr", []byte("short")); err != nil {
				t.Fatal(err)
			}
			readPath("/tr", []byte("short"), "shrinking WriteFile")

			// The call that sends a truncate reports its error, and the
			// truncate stays staged for the repeat: the handle's context
			// dies before the Close that carries it, and a Save converges
			// on the cut file.
			if err := steghide.WriteFile(ctx, fs, "/tr", base[:20*ps]); err != nil {
				t.Fatal(err)
			}
			cctx, cancel = context.WithCancel(ctx)
			if wc, err = fs.OpenWrite(cctx, "/tr"); err != nil {
				t.Fatal(err)
			}
			want = bytes.Clone(base[:3*ps])
			copy(want[ps:], block('G'))
			if _, err := wc.WriteAt(block('G'), int64(ps)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(ctx, "/tr", uint64(3*ps)); err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := wc.Close(); !fx.writeThrough && (!errors.Is(err, context.Canceled) || !errors.As(err, &pe)) {
				t.Fatalf("close under a dead context: want a *PathError carrying context.Canceled, got %v", err)
			}
			if err := fs.Save(ctx, "/tr"); err != nil {
				t.Fatalf("save after the refused close: %v", err)
			}
			readPath("/tr", want, "after the converged save")

			// A refused truncate is reported once, by the call that sends
			// it: Truncate itself where it applies at once, else the Stat
			// it rides. The path stays usable: a valid Truncate and a
			// ReadFile then succeed.
			terr := fs.Truncate(ctx, "/tr", 1<<50)
			_, serr := fs.Stat(ctx, "/tr")
			if (terr == nil) == (serr == nil) {
				t.Fatalf("truncate past the maximum size: want one error, from Truncate or the Stat behind it, got %v and %v", terr, serr)
			}
			if err := fs.Truncate(ctx, "/tr", uint64(2*ps)); err != nil {
				t.Fatalf("truncate after a refused one: %v", err)
			}
			readPath("/tr", want[:2*ps], "after a refused truncate")
		})
	}
}

// TestFSConformanceCancelMidOp cancels a context *during* a write and
// checks the operation aborts with the context error — the scheduler
// honors cancellation between Figure-6 draws; the wire honors it on
// the round trip.
func TestFSConformanceCancelMidOp(t *testing.T) {
	for _, fx := range fsFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			fs, _ := fx.open(t)
			defer fs.Close()
			if err := fs.Create(ctx, "/f"); err != nil {
				t.Fatal(err)
			}
			// A context that expires after a few scheduler draws: the
			// deadline is already in the past by the time the bulk of
			// the write runs.
			cctx, cancel := context.WithCancel(ctx)
			w, err := fs.OpenWrite(cctx, "/f")
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			payload := bytes.Repeat([]byte("x"), 8192)
			if _, err := w.WriteAt(payload, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-op cancel: want context.Canceled, got %v", err)
			}
		})
	}
}

// TestFSConformanceClosed pins what Close and an expired context mean,
// the same on every surface. After Close every method — and every
// handle opened before it: reads, writes and a write handle's Close —
// fails with a *PathError wrapping os.ErrClosed, and the stacks see no
// further data update. Under an already cancelled context every method
// fails with a *PathError wrapping context.Canceled, on a path already
// disclosed too, and the file reads back as it was.
func TestFSConformanceClosed(t *testing.T) {
	for _, fx := range fsFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			fs, probe := fx.open(t)
			defer fs.Close() // in case a check fails before the Close under test
			want := []byte("closed means closed")
			if err := steghide.WriteFile(ctx, fs, "/f", want); err != nil {
				t.Fatal(err)
			}

			cctx, cancel := context.WithCancel(ctx)
			cancel()
			expectEvery(t, everyMethod(cctx, fs, "/f"), context.Canceled)
			if got, err := steghide.ReadFile(ctx, fs, "/f"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("after the cancelled calls: read back %q err=%v, want %q", got, err, want)
			}

			r, err := fs.OpenRead(ctx, "/f")
			if err != nil {
				t.Fatal(err)
			}
			w, err := fs.OpenWrite(ctx, "/f")
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			before := probe.updates()
			expectEvery(t, everyMethod(ctx, fs, "/f"), os.ErrClosed)
			_, rerr := r.ReadAt(make([]byte, len(want)), 0)
			_, werr := w.WriteAt([]byte("late"), 0)
			expectEvery(t, []fsCall{{"ReadAt", rerr}, {"WriteAt", werr}, {"write handle Close", w.Close()}}, os.ErrClosed)
			if n := probe.updates() - before; n != 0 {
				t.Fatalf("%d data updates after Close", n)
			}
		})
	}
}

// TestFSConformanceConcurrent drives one FS from several goroutines on
// every surface: the open-file table, the handles and (behind the
// oblivious cache) the ordinal registry are shared state, so each
// goroutine's file must read back as it wrote it and list beside the
// others. Run it under -race.
func TestFSConformanceConcurrent(t *testing.T) {
	for _, fx := range fsFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			fs, _ := fx.open(t)
			defer fs.Close()
			const workers = 4
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					path := fmt.Sprintf("/w%d", i)
					data := bytes.Repeat([]byte{byte('a' + i)}, 5000+i)
					for round := 0; round < 3; round++ {
						if err := steghide.WriteFile(ctx, fs, path, data); err != nil {
							t.Errorf("%s: write: %v", path, err)
							return
						}
						got, err := steghide.ReadFile(ctx, fs, path)
						if err != nil || !bytes.Equal(got, data) {
							t.Errorf("%s: read back %d bytes, err=%v", path, len(got), err)
							return
						}
						if _, err := fs.List(ctx); err != nil {
							t.Errorf("%s: list: %v", path, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			paths, err := fs.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"/w0", "/w1", "/w2", "/w3"}; !equalStrings(paths, want) {
				t.Fatalf("listing %v, want %v", paths, want)
			}
		})
	}
}

// fsCall is what one FS call reported.
type fsCall struct {
	name string
	err  error
}

// everyMethod calls each FS method once about path, a file fs holds.
func everyMethod(ctx context.Context, fs steghide.FS, path string) []fsCall {
	errOf := func(_ any, err error) error { return err }
	return []fsCall{
		{"Create", fs.Create(ctx, path+".new")},
		{"CreateDummy", fs.CreateDummy(ctx, path+".dummy", 4)},
		{"OpenRead", errOf(fs.OpenRead(ctx, path))},
		{"OpenWrite", errOf(fs.OpenWrite(ctx, path))},
		{"Save", fs.Save(ctx, path)},
		{"Truncate", fs.Truncate(ctx, path, 0)},
		{"Stat", errOf(fs.Stat(ctx, path))},
		{"Disclose", errOf(fs.Disclose(ctx, path))},
		{"List", errOf(fs.List(ctx))},
		{"Delete", fs.Delete(ctx, path)},
	}
}

// expectEvery fails each call that did not return a *PathError
// wrapping want.
func expectEvery(t *testing.T, calls []fsCall, want error) {
	t.Helper()
	for _, c := range calls {
		var pe *steghide.PathError
		if !errors.Is(c.err, want) || !errors.As(c.err, &pe) {
			t.Errorf("%s: want a *PathError wrapping %v, got %v", c.name, want, c.err)
		}
	}
}

// TestC1CrossPrincipalIsolation pins the Construction-1 credential
// check: the agent's path-keyed handle cache must not serve one
// principal's open file to a login presenting a different locator
// secret — a wrong secret sees ErrNotFound, indistinguishable from
// the file not existing.
func TestC1CrossPrincipalIsolation(t *testing.T) {
	for _, oblivious := range []bool{false, true} {
		name := "c1-agent"
		opts := []steghide.Option{
			steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("iso")}),
			steghide.WithConstruction1([]byte("iso-secret")),
			steghide.WithSeed([]byte("iso-agent")),
		}
		if oblivious {
			name = "oblivious"
			opts = append(opts, steghide.WithObliviousCache(16, 4))
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			alice, err := stack.Login("alice", "alice-locator")
			if err != nil {
				t.Fatal(err)
			}
			if err := steghide.WriteFile(ctx, alice, "/private", []byte("alice's secret")); err != nil {
				t.Fatal(err)
			}
			bob, err := stack.Login("bob", "bob-locator")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bob.OpenRead(ctx, "/private"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("bob opening alice's open file: want ErrNotFound, got %v", err)
			}
			if err := bob.Delete(ctx, "/private"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("bob deleting alice's open file: want ErrNotFound, got %v", err)
			}
			if _, err := bob.Stat(ctx, "/private"); !errors.Is(err, steghide.ErrNotFound) {
				t.Fatalf("bob statting alice's open file: want ErrNotFound, got %v", err)
			}
			// Alice still has full access through her own view.
			got, err := steghide.ReadFile(ctx, alice, "/private")
			if err != nil || string(got) != "alice's secret" {
				t.Fatalf("alice read back %q err=%v", got, err)
			}

			// The handle table is keyed by (path, locator), not path:
			// bob can create his *own* /private while alice's is open,
			// and the two coexist without shadowing each other.
			if err := steghide.WriteFile(ctx, bob, "/private", []byte("bob's file")); err != nil {
				t.Fatalf("bob creating his own /private: %v", err)
			}
			got, err = steghide.ReadFile(ctx, bob, "/private")
			if err != nil || string(got) != "bob's file" {
				t.Fatalf("bob read back %q err=%v", got, err)
			}
			got, err = steghide.ReadFile(ctx, alice, "/private")
			if err != nil || string(got) != "alice's secret" {
				t.Fatalf("alice after bob's create: read back %q err=%v", got, err)
			}
			// Bob deleting his file touches only his handle; alice's
			// file — same pathname, different locator — survives.
			if err := bob.Delete(ctx, "/private"); err != nil {
				t.Fatalf("bob deleting his own /private: %v", err)
			}
			got, err = steghide.ReadFile(ctx, alice, "/private")
			if err != nil || string(got) != "alice's secret" {
				t.Fatalf("alice after bob's delete: read back %q err=%v", got, err)
			}
			if err := bob.Close(); err != nil {
				t.Fatal(err)
			}
			if err := alice.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
