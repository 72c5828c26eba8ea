package steghide

import (
	"cmp"
	"context"

	"steghide/internal/wire"
)

// remoteBackend is a logged-in agent-protocol connection, which it
// owns. The wire round-trips sentinel error codes, so errors.Is
// behaves as against a local session. The connection is multiplexed:
// concurrent calls pipeline on it, a context deadline bounds each
// exchange, and cancellation abandons just that request.
type remoteBackend struct {
	c *AgentClient
}

// dialConfig collects DialFS options.
type dialConfig struct {
	retry  bool
	policy RetryPolicy
	addrs  []string
}

// DialOption configures DialFS / DialVolumeFS.
type DialOption func(*dialConfig)

// WithRetry makes the dialed session self-healing: on a broken
// connection the client re-dials with backoff under policy, replays
// the login and the session's disclosures, and transparently retries
// idempotent calls (reads, stats, lists). Writes and saves are
// retried only when the request provably never reached the server;
// otherwise they fail with ErrMaybeApplied and the caller decides
// (re-issuing a whole-content write is always safe). The zero policy
// means library defaults.
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

// DialFS dials an agent server, logs user in on the default volume,
// and returns the remote session as an FS. Close logs out and drops
// the connection — transport lifetime enforcing the volatility
// property.
func DialFS(ctx context.Context, addr, user, passphrase string, opts ...DialOption) (FS, error) {
	return DialVolumeFS(ctx, addr, "", user, passphrase, opts...)
}

// DialVolumeFS is DialFS against one named volume of a multi-volume
// agent server (ServeListener, NewServer): the volume field of the v2
// login frame routes the session. The empty name is the default volume.
func DialVolumeFS(ctx context.Context, addr, volume, user, passphrase string, opts ...DialOption) (FS, error) {
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
	if err := cli.Login(ctx, volume, user, passphrase); err != nil {
		cli.Close() //nolint:errcheck // the login error wins
		return nil, pathErr("login", user, err)
	}
	return newFS(&remoteBackend{c: cli}), nil
}

// open discloses path unless this FS already did: disclosure is sticky
// server-side until logout, so one round trip per path is enough. A
// Disclose also reports the size, which changes, so a sized open asks.
func (b *remoteBackend) open(ctx context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error) {
	if known != nil && !sized {
		return known, 0, nil
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
	return b.c.Read(ctx, path, p, off)
}

// wireWriteChunk bounds each write frame, mirroring ReadFile's bounded
// reads: a huge WriteAt becomes several pipelineable frames instead of
// one frame that could exceed the negotiated limit, which the mux
// would refuse.
const wireWriteChunk = 1 << 20

func (b *remoteBackend) write(ctx context.Context, _ *openFile, path string, p []byte, off uint64) (int, error) {
	for written := 0; written < len(p); {
		n := min(len(p)-written, wireWriteChunk)
		if err := b.c.Write(ctx, path, p[written:written+n], off+uint64(written)); err != nil {
			return written, err
		}
		written += n
	}
	return len(p), nil
}

func (b *remoteBackend) save(ctx context.Context, _ *openFile, path string) error {
	return b.c.Save(ctx, path)
}

func (b *remoteBackend) truncate(ctx context.Context, _ *openFile, path string, size uint64) error {
	return b.c.Truncate(ctx, path, size)
}

func (b *remoteBackend) delete(ctx context.Context, _ *openFile, path string) error {
	return b.c.Delete(ctx, path)
}

func (b *remoteBackend) list(ctx context.Context) ([]string, error) { return b.c.Files(ctx) }

// close logs out (the server flushes and forgets the session) and
// hangs up.
func (b *remoteBackend) close(map[string]*openFile) error {
	return cmp.Or(b.c.Logout(context.Background()), b.c.Close())
}
