package attack_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	isteg "steghide/internal/steghide"
)

const (
	streamBS     = 512
	streamBlocks = 2048
	streamRing   = 64
)

// publicMatches runs the adversary over mem's image.
func publicMatches(t *testing.T, mem *steghide.MemDevice) int {
	t.Helper()
	adv := attack.PublicStreamAdversary{BlockSize: streamBS, Horizon: 4 * streamBlocks}
	n, err := adv.Matches(mem.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPublicStreamAdversaryHasPower is the adversary's power check: the
// streams the volume drew from before it was keyed — the constant seed
// of a format without one, and the salt-seeded stream of every reopen —
// are found block by block.
func TestPublicStreamAdversaryHasPower(t *testing.T) {
	mem := steghide.NewMemDevice(streamBS, streamBlocks)
	if _, err := steghide.Format(mem, steghide.FormatOptions{KDFIterations: 4, FillSeed: []byte("stegfs-default-fill-seed")}); err != nil {
		t.Fatal(err)
	}
	if n := publicMatches(t, mem); n != streamBlocks-1 {
		t.Fatalf("a fill from the constant seed: %d blocks matched, want %d", n, streamBlocks-1)
	}

	mem = steghide.NewMemDevice(streamBS, streamBlocks)
	vol, err := steghide.Format(mem, steghide.FormatOptions{KDFIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := publicMatches(t, mem); n != 0 {
		t.Fatalf("a fill from crypto/rand: %d blocks matched", n)
	}
	reopen := prng.New(vol.Salt()).Child("volume-iv-reopen")
	raw := make([]byte, streamBS)
	for loc := uint64(1); loc <= 10; loc++ {
		if loc%2 == 0 {
			reopen.Read(raw[:16]) //nolint:errcheck // prng reads cannot fail
		} else {
			reopen.Fill(raw)
		}
		if err := mem.WriteBlock(loc*100, raw); err != nil {
			t.Fatal(err)
		}
	}
	if n := publicMatches(t, mem); n != 10 {
		t.Fatalf("ten blocks from the salt-seeded stream: %d matched", n)
	}
}

// agentRig is one construction stood up on a device: its FS, its dummy
// burst, the bitmap snapshot Construction 1 reloads after a crash, and
// its teardown.
type agentRig struct {
	fs    steghide.FS
	burst func(n int) error
	state func() ([]byte, error)
	close func() error
}

// standUp formats dev (format) or opens it and recovers its journal
// (state is Construction 1's last bitmap snapshot).
type standUp func(t *testing.T, dev steghide.Device, format bool, state []byte) *agentRig

var c1Secret = []byte("stream-c1-secret")

func mountC2(t *testing.T, dev steghide.Device, format bool, _ []byte) *agentRig {
	opts := []steghide.Option{steghide.WithConstruction2(), steghide.WithJournal("admin"),
		steghide.WithSeed([]byte("stream-agent"))}
	if format {
		opts = append(opts, steghide.WithFormat(steghide.FormatOptions{KDFIterations: 4, JournalBlocks: streamRing}))
	}
	stack, err := steghide.Mount(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := stack.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	return &agentRig{fs: fs, close: stack.Close,
		burst: func(n int) error { _, err := stack.Agent2().DummyUpdateBurst(n); return err }}
}

func manualC2(t *testing.T, dev steghide.Device, format bool, _ []byte) *agentRig {
	vol := manualVolume(t, dev, format)
	agent := isteg.NewVolatile(vol, prng.New([]byte("stream-agent")))
	if err := agent.EnableJournal(isteg.JournalKey(vol, "admin")); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Recover(); err != nil {
		t.Fatal(err)
	}
	sess, err := agent.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	fs := sessionFS{agent: agent, sess: sess}
	return &agentRig{fs: fs, close: fs.Close,
		burst: func(n int) error { _, err := agent.DummyUpdateBurst(n); return err }}
}

// sessionFS is the FS a hand-wired Construction-2 session offers
// session(): the calls Stack.Login's FS makes for CreateDummy, Disclose
// and WriteFile, and logout at Close. Other FS methods are not used.
type sessionFS struct {
	steghide.FS
	agent *isteg.VolatileAgent
	sess  *isteg.Session
}

func (s sessionFS) CreateDummy(_ context.Context, path string, blocks uint64) error {
	_, err := s.sess.CreateDummy(path, blocks)
	return err
}

func (s sessionFS) Disclose(_ context.Context, path string) (steghide.FileInfo, error) {
	_, err := s.sess.Disclose(path)
	return steghide.FileInfo{Path: path}, err
}

func (s sessionFS) Create(_ context.Context, path string) error {
	_, err := s.sess.Create(path)
	return err
}

func (s sessionFS) OpenWrite(ctx context.Context, path string) (steghide.WriteHandle, error) {
	if _, ok := s.sess.Open(path); !ok {
		if _, err := s.sess.Disclose(path); err != nil {
			return nil, err
		}
	}
	return sessionWriter{ctx: ctx, sess: s.sess, path: path}, nil
}

func (s sessionFS) Truncate(ctx context.Context, path string, size uint64) error {
	return s.sess.Truncate(ctx, path, size)
}

func (s sessionFS) Close() error { return s.agent.Logout(context.Background(), s.sess.User()) }

// sessionWriter stages writes in the session and saves at Close.
type sessionWriter struct {
	ctx  context.Context
	sess *isteg.Session
	path string
}

func (w sessionWriter) WriteAt(p []byte, off int64) (int, error) {
	if err := w.sess.Stage(w.ctx, w.path, p, uint64(off)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w sessionWriter) Close() error { return w.sess.Save(w.ctx, w.path) }

func mountC1(t *testing.T, dev steghide.Device, format bool, state []byte) *agentRig {
	opts := []steghide.Option{steghide.WithConstruction1(c1Secret), steghide.WithJournal(""),
		steghide.WithSeed([]byte("stream-agent"))}
	if format {
		opts = append(opts, steghide.WithFormat(steghide.FormatOptions{KDFIterations: 4, JournalBlocks: streamRing}))
	}
	stack, err := steghide.Mount(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c1Recover(t, stack.Agent1(), state)
	fs, err := stack.Login("alice", "alice")
	if err != nil {
		t.Fatal(err)
	}
	return c1Rig(stack.Agent1(), fs, stack.Close)
}

func manualC1(t *testing.T, dev steghide.Device, format bool, state []byte) *agentRig {
	vol := manualVolume(t, dev, format)
	agent, err := isteg.NewNonVolatile(vol, c1Secret, prng.New([]byte("stream-agent")))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	c1Recover(t, agent, state)
	fs := steghide.NewAgentFS(agent, "alice")
	return c1Rig(agent, fs, fs.Close)
}

func c1Recover(t *testing.T, agent *steghide.NonVolatileAgent, state []byte) {
	t.Helper()
	if state == nil {
		return
	}
	if err := agent.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Recover(); err != nil {
		t.Fatal(err)
	}
}

func c1Rig(agent *steghide.NonVolatileAgent, fs steghide.FS, close func() error) *agentRig {
	return &agentRig{fs: fs, state: agent.State, close: close,
		burst: func(n int) error { _, err := agent.DummyUpdateBurst(n); return err }}
}

// manualVolume formats dev with no seed, which reads crypto/rand, or
// opens it under a fixed generator, the same at every reopen.
func manualVolume(t *testing.T, dev steghide.Device, format bool) *steghide.Volume {
	t.Helper()
	var vol *steghide.Volume
	var err error
	if format {
		vol, err = steghide.Format(dev, steghide.FormatOptions{KDFIterations: 4, JournalBlocks: streamRing})
	} else {
		vol, err = stegfs.Open(dev, prng.New([]byte("stream-volume")))
	}
	if err != nil {
		t.Fatal(err)
	}
	return vol
}

// session is one user's traffic: a C2 cover made (round 0) or
// disclosed, eight WriteFiles and a 256-element dummy burst. It stops
// at the first error and returns it.
func session(ctx context.Context, rig *agentRig, c2 bool, round int) error {
	if c2 {
		var err error
		if round == 0 {
			err = rig.fs.CreateDummy(ctx, "/cover", 512)
		} else {
			_, err = rig.fs.Disclose(ctx, "/cover")
		}
		if err != nil {
			return err
		}
	}
	for i := range 8 {
		data := bytes.Repeat([]byte{byte(round), byte(i)}, 1500)
		if err := steghide.WriteFile(ctx, rig.fs, fmt.Sprintf("/f%d", i), data); err != nil {
			return err
		}
	}
	return rig.burst(256)
}

// TestPublicStreamAdversaryFindsNothing keys the volume's IV and
// filler stream: on both constructions, through Mount and through the
// manual wiring, no block matches a public stream after a format, after
// reopens with writes and a dummy burst, and after crash recovery. The
// reopens all run under one fixed seed, and no block a session writes
// may start with bytes an earlier session left: a reopen does not
// replay its stream.
func TestPublicStreamAdversaryFindsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		c2   bool
		up   standUp
	}{
		{"c2-mount", true, mountC2},
		{"c2-manual", true, manualC2},
		{"c1-mount", false, mountC1},
		{"c1-manual", false, manualC1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			mem := steghide.NewMemDevice(streamBS, streamBlocks)
			seen := map[[16]byte]bool{}
			prev := mem.Snapshot()
			check := func(when string) {
				t.Helper()
				if n := publicMatches(t, mem); n != 0 {
					t.Fatalf("%s: %d blocks match a public stream", when, n)
				}
				now := mem.Snapshot()
				var fresh [][16]byte
				for off := streamBS; off < len(now); off += streamBS {
					if bytes.Equal(now[off:off+16], prev[off:off+16]) {
						continue
					}
					head := [16]byte(now[off:])
					if seen[head] {
						t.Fatalf("%s: block %d starts with bytes an earlier session wrote", when, off/streamBS)
					}
					fresh = append(fresh, head)
				}
				for _, h := range fresh {
					seen[h] = true
				}
				prev = now
			}
			var state []byte
			end := func(rig *agentRig) {
				t.Helper()
				if rig.state != nil {
					var err error
					if state, err = rig.state(); err != nil {
						t.Fatal(err)
					}
				}
				if err := rig.close(); err != nil {
					t.Fatal(err)
				}
			}

			rig := tc.up(t, mem, true, nil)
			check("after the format")
			if err := session(ctx, rig, tc.c2, 0); err != nil {
				t.Fatal(err)
			}
			end(rig)
			check("after the first session")
			for round := 1; round <= 2; round++ {
				rig = tc.up(t, mem, false, state)
				if err := session(ctx, rig, tc.c2, round); err != nil {
					t.Fatal(err)
				}
				end(rig)
				check(fmt.Sprintf("after reopen %d", round))
			}

			fd := steghide.NewFaultDevice(mem)
			rig = tc.up(t, fd, false, state)
			fd.PowerCutAfterWrites(300)
			if err := session(ctx, rig, tc.c2, 3); !errors.Is(err, steghide.ErrPowerCut) {
				t.Fatalf("the session under a power cut ended with %v", err)
			}
			fd.Heal()
			check("after the power cut")
			rig = tc.up(t, fd, false, state)
			if err := session(ctx, rig, tc.c2, 4); err != nil {
				t.Fatal(err)
			}
			end(rig)
			check("after crash recovery")
		})
	}
}
