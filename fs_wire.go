package steghide

import (
	"cmp"
	"context"
	"errors"
	"maps"
	"slices"
	"sync"

	"steghide/internal/mempool"
	"steghide/internal/stegfs"
	"steghide/internal/wire"
)

// remoteBackend is a logged-in agent-protocol connection, which it
// owns. The wire round-trips sentinel error codes, so errors.Is
// behaves as against a local session. The connection is multiplexed:
// concurrent calls pipeline on it, a context deadline bounds each
// exchange, and cancellation abandons just that request.
//
// A handle's writes and a truncate wait in the client, one run per
// path, and reach the agent as one msgWriteV: the user's channel to
// the agent is private (§3.2), so a round trip per call hides nothing
// the agent's own open run does not already hold back.
type remoteBackend struct {
	c  *AgentClient
	ps uint64 // the volume's payload size, from the login reply

	mu   sync.Mutex
	runs map[string]*remoteRun
}

// remoteRun is one path's writes not yet sent to the agent, in call
// order, their bytes leased from the memory plane, then a truncate to
// size when cut is set. blocks is the agent's open run as it will
// stand once they are applied: the distinct logical blocks
// stegfs.File.Stage would hold, which decide where the agent issues.
// mu is held across the round trip that sends the run, so one path's
// calls reach the agent in call order while other paths' calls go on.
type remoteRun struct {
	mu     sync.Mutex
	segs   []wire.Segment
	bytes  int // staged bytes in segs
	cut    bool
	size   uint64
	blocks []uint64
}

// stage applies a write of n bytes at off to blocks by Stage's rules
// and reports whether the agent issues its run while staging it: at a
// block that would be the run's 65th, or at a stretch of 64 whole
// blocks, which is issued with everything staged (a tail shorter than
// a block riding along).
func (r *remoteRun) stage(off uint64, n int, ps uint64) (issues bool) {
	const run = stegfs.RunBlocks
	for end := off + uint64(n); off < end; {
		li, bo := off/ps, off%ps
		if bo == 0 && end-off >= run*ps {
			if off += run * ps; end-off < ps {
				off = end
			}
			r.blocks, issues = r.blocks[:0], true
			continue
		}
		if !slices.Contains(r.blocks, li) {
			if len(r.blocks) == run {
				r.blocks, issues = r.blocks[:0], true
			}
			r.blocks = append(r.blocks, li)
		}
		off += min(ps-bo, end-off)
	}
	return issues
}

// sent returns the segments' leases once the agent has the run.
func (r *remoteRun) sent() {
	for _, s := range r.segs {
		mempool.Recycle(s.Data)
	}
	clear(r.segs)
	r.segs, r.bytes, r.cut, r.size = r.segs[:0], 0, false, 0
}

// dialConfig collects DialFS options.
type dialConfig struct {
	volume string
	retry  bool
	policy RetryPolicy
	addrs  []string
}

// DialOption configures DialFS and DialClusterFS.
type DialOption func(*dialConfig)

// WithVolume logs in on the named volume of a multi-volume agent
// server (ServeListener, NewServer): the volume field of the login
// frame routes the session. The empty name is the default volume.
func WithVolume(name string) DialOption {
	return func(c *dialConfig) { c.volume = name }
}

// WithRetry makes the dialed session self-healing: on a broken
// connection the client re-dials with backoff under policy, replays
// the login and the session's disclosures, and transparently retries
// idempotent calls (reads, stats, lists). Writes and saves are
// retried only when the request provably never reached the server;
// otherwise they fail with ErrMaybeApplied and the caller decides
// (re-issuing a whole-content write is always safe). A handle's
// writes and Truncate wait in the client and travel with the call that
// sends them (see WriteHandle), so that call reports their failure,
// ErrMaybeApplied included, and they stay staged for its repeat. The
// zero policy means library defaults.
func WithRetry(policy RetryPolicy) DialOption {
	return func(c *dialConfig) {
		c.retry = true
		c.policy = policy
	}
}

// WithRedial adds fallback addresses the self-healing client rotates
// through when its current server fails or announces a drain
// (Shutdown). Implies WithRetry with default policy unless WithRetry
// sets one.
func WithRedial(addrs ...string) DialOption {
	return func(c *dialConfig) {
		c.retry = true
		c.addrs = append(c.addrs, addrs...)
	}
}

// DialFS dials an agent server, logs user in on the default volume (or
// the one WithVolume names), and returns the remote session as an FS.
// Close logs out and drops the connection — transport lifetime
// enforcing the volatility property.
func DialFS(ctx context.Context, addr, user, passphrase string, opts ...DialOption) (FS, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	var (
		cli *AgentClient
		err error
	)
	if cfg.retry {
		cli, err = wire.DialAgentRetry(ctx, cfg.policy, append([]string{addr}, cfg.addrs...)...)
	} else {
		cli, err = wire.DialAgent(ctx, addr)
	}
	if err != nil {
		return nil, pathErr("dial", addr, err)
	}
	err = cli.Login(ctx, cfg.volume, user, passphrase)
	if err == nil && cli.PayloadSize() == 0 {
		err = errors.New("steghide: agent reports a payload size of 0")
	}
	if err != nil {
		cli.Close() //nolint:errcheck // the login error wins
		return nil, pathErr("login", user, err)
	}
	return newFS(&remoteBackend{c: cli, ps: uint64(cli.PayloadSize()), runs: map[string]*remoteRun{}}), nil
}

// lock returns path's run locked, making an empty one the first time.
func (b *remoteBackend) lock(path string) *remoteRun {
	b.mu.Lock()
	r := b.runs[path]
	if r == nil {
		r = &remoteRun{}
		b.runs[path] = r
	}
	b.mu.Unlock()
	r.mu.Lock()
	return r
}

// wireWriteChunk bounds the bytes of one write frame, mirroring
// ReadFile's bounded reads: a huge WriteAt becomes several frames
// instead of one that could exceed the negotiated limit, which the mux
// would refuse, and a run of many small writes is sent before its
// bytes pass it.
const wireWriteChunk = 1 << 20

// send sends r and then p at off — the caller's buffer, not copied —
// in frames carrying at most wireWriteChunk of p, the last one with the
// save flag when save is set; the caller holds r.mu. r's truncate
// rides the first frame, behind its segments (never before p: write
// sends it first). A failed frame leaves r staged for the repeat, but
// for its truncate when the agent replies with an error: that is
// reported once and dropped, as a local Truncate reports it and leaves
// the file usable. It reports how much of p the agent took.
func (b *remoteBackend) send(ctx context.Context, path string, r *remoteRun, save bool, p []byte, off uint64) (int, error) {
	for written := 0; ; {
		n := min(len(p)-written, wireWriteChunk)
		segs := r.segs
		if n > 0 {
			segs = append(segs, wire.Segment{Off: off + uint64(written), Data: p[written : written+n]})
		}
		last := written+n == len(p)
		err := b.c.WriteV(ctx, path, wire.Then{Truncate: r.cut, Size: r.size, Save: save && last}, segs...)
		if n > 0 {
			segs[len(segs)-1].Data = nil // keep no reference to the caller's buffer
		}
		if err != nil {
			if errors.Is(err, wire.ErrRemote) && !errors.Is(err, context.Canceled) {
				r.cut, r.size = false, 0
			}
			return written, err
		}
		r.sent()
		if written += n; last {
			return written, nil
		}
	}
}

// sendStaged sends r's writes and truncate, if any, so that the agent
// serves the call that follows with them in place; the caller holds
// r.mu. Sending stages writes: the agent issues nothing it would not
// have issued. A truncate that grows the file issues its growth there,
// so a read or Stat that carries one writes to the device.
func (b *remoteBackend) sendStaged(ctx context.Context, path string, r *remoteRun) error {
	if len(r.segs) == 0 && !r.cut {
		return nil
	}
	_, err := b.send(ctx, path, r, false, nil, 0)
	return err
}

// sendCut sends r if it holds a truncate, which the agent applies
// after segments: a write or truncate behind it goes in a later frame.
func (b *remoteBackend) sendCut(ctx context.Context, path string, r *remoteRun) error {
	if !r.cut {
		return nil
	}
	return b.sendStaged(ctx, path, r)
}

// sendPath is sendStaged for a call that does not hold path's run.
func (b *remoteBackend) sendPath(ctx context.Context, path string) error {
	r := b.lock(path)
	defer r.mu.Unlock()
	return b.sendStaged(ctx, path, r)
}

// open discloses path unless this FS already did: disclosure is sticky
// server-side until logout, so one round trip per path is enough. A
// Disclose also reports the size, which changes, so a sized open asks,
// after sending what is staged.
func (b *remoteBackend) open(ctx context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error) {
	if known != nil && !sized {
		return known, 0, nil
	}
	if sized {
		if err := b.sendPath(ctx, path); err != nil {
			return nil, 0, err
		}
	}
	dummy, size, err := b.c.Disclose(ctx, path)
	return kindRow[dummy], size, err
}

func (b *remoteBackend) create(ctx context.Context, path string, dummy bool, blocks uint64) (*openFile, error) {
	if dummy {
		return kindRow[true], b.c.CreateDummy(ctx, path, blocks)
	}
	return kindRow[false], b.c.Create(ctx, path)
}

func (b *remoteBackend) read(ctx context.Context, _ *openFile, path string, p []byte, off uint64) (int, error) {
	if err := b.sendPath(ctx, path); err != nil {
		return 0, err
	}
	return b.c.Read(ctx, path, p, off)
}

// write stages p in path's run: copied into a lease, no round trip.
// The run is sent, p riding along uncopied, when the agent would issue
// while staging p, so that it issues inside this call as a local
// session does, or when p would take the run past wireWriteChunk bytes.
func (b *remoteBackend) write(ctx context.Context, _ *openFile, path string, p []byte, off uint64) (int, error) {
	r := b.lock(path)
	defer r.mu.Unlock()
	if err := b.sendCut(ctx, path, r); err != nil {
		return 0, err
	}
	if r.stage(off, len(p), b.ps) || r.bytes+len(p) > wireWriteChunk {
		return b.send(ctx, path, r, false, p, off)
	}
	buf := mempool.Get(len(p))
	copy(buf, p)
	r.segs = append(r.segs, wire.Segment{Off: off, Data: buf})
	r.bytes += len(p)
	return len(p), nil
}

// save sends the run with the save flag set: one frame.
func (b *remoteBackend) save(ctx context.Context, _ *openFile, path string) error {
	r := b.lock(path)
	defer r.mu.Unlock()
	if _, err := b.send(ctx, path, r, true, nil, 0); err != nil {
		return err
	}
	r.blocks = r.blocks[:0]
	return nil
}

// truncate stages size behind path's writes, no round trip, after
// sending a truncate already staged; the agent drops the staged blocks
// past the new end.
func (b *remoteBackend) truncate(ctx context.Context, _ *openFile, path string, size uint64) error {
	r := b.lock(path)
	defer r.mu.Unlock()
	if err := b.sendCut(ctx, path, r); err != nil {
		return err
	}
	r.cut, r.size = true, size
	end := (size + b.ps - 1) / b.ps
	r.blocks = slices.DeleteFunc(r.blocks, func(li uint64) bool { return li >= end })
	return nil
}

// delete discards the run, as the agent discards its own.
func (b *remoteBackend) delete(ctx context.Context, _ *openFile, path string) error {
	r := b.lock(path)
	defer r.mu.Unlock()
	if err := b.c.Delete(ctx, path); err != nil {
		return err
	}
	r.sent()
	r.blocks = r.blocks[:0]
	return nil
}

func (b *remoteBackend) list(ctx context.Context) ([]string, error) { return b.c.Files(ctx) }

// close sends every run, logs out (the server issues and saves what
// the session staged, then forgets it) and hangs up. A run that cannot
// be sent is lost with the session, and reported.
func (b *remoteBackend) close(map[string]*openFile) error {
	ctx := context.Background()
	b.mu.Lock()
	paths := slices.Sorted(maps.Keys(b.runs))
	b.mu.Unlock()
	var err error
	for _, path := range paths {
		r := b.lock(path)
		if serr := b.sendStaged(ctx, path, r); err == nil {
			err = serr
		}
		r.sent()
		r.mu.Unlock()
	}
	return cmp.Or(err, b.c.Logout(ctx), b.c.Close())
}
