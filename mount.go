package steghide

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/oblivious"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
	"steghide/internal/wire"
)

// defaultJournalRing is the intent-ring size Mount reserves when
// WithJournal accompanies WithFormat and the caller did not size the
// ring explicitly (FormatOptions.JournalBlocks).
const defaultJournalRing = 256

// mountConfig accumulates the options.
type mountConfig struct {
	format       *FormatOptions
	construction int // 1 or 2; 2 is the paper's implemented system
	secret       []byte
	journal      bool
	journalPass  string
	oblivious    bool
	obliBuffer   int
	obliLevels   int
	daemon       bool
	daemonPeriod time.Duration
	daemonBurst  int
	trace        Tracer
	stripe       []Device
	rng          *PRNG
	volName      string
	metrics      *Metrics
	loginQuota   uint64
}

// Option configures Mount.
type Option func(*mountConfig) error

// WithFormat makes Mount format the device as a fresh volume instead
// of opening an existing one. Combined with WithJournal, an unsized
// ring (JournalBlocks == 0) defaults to 256 slots (blocks; at 4 KiB
// blocks each holds 64 records).
func WithFormat(opts FormatOptions) Option {
	return func(c *mountConfig) error {
		c.format = &opts
		return nil
	}
}

// WithConstruction1 selects the non-volatile agent (§4.1,
// "StegHide*"): one persistent block key derived from secret, the
// data/dummy partition in agent memory.
func WithConstruction1(secret []byte) Option {
	return func(c *mountConfig) error {
		if len(secret) == 0 {
			return errors.New("steghide: WithConstruction1 needs a non-empty secret")
		}
		c.construction = 1
		c.secret = append([]byte(nil), secret...)
		return nil
	}
}

// WithConstruction2 selects the volatile agent (§4.2, "StegHide" —
// the default): the agent boots with zero knowledge and learns keys
// only at login.
func WithConstruction2() Option {
	return func(c *mountConfig) error {
		c.construction = 2
		return nil
	}
}

// WithJournal enables the sealed intent journal on the mounted agent
// (the volume must carry a ring — format it with WithJournal too, or
// with FormatOptions.JournalBlocks > 0). The passphrase derives the
// Construction-2 journal key; Construction 1 derives its key from the
// agent secret and ignores it. Construction-2 stacks recover the ring
// at mount; Construction-1 stacks recover on Stack.Recover, after the
// administrator restored the bitmap snapshot (Agent1().LoadState).
func WithJournal(passphrase string) Option {
	return func(c *mountConfig) error {
		c.journal = true
		c.journalPass = passphrase
		return nil
	}
}

// WithObliviousCache adds the §5 read-hiding cache: an in-memory
// oblivious store of the given geometry (buffer capacity B and k
// levels; the last level caches up to 2^(k-1)·B distinct blocks),
// wired to the volume. Requires Construction 1 — the composition
// routes reads through the cache and writes through the agent's
// Figure-6 policy.
func WithObliviousCache(bufferBlocks, levels int) Option {
	return func(c *mountConfig) error {
		if bufferBlocks < 1 || levels < 1 {
			return errors.New("steghide: WithObliviousCache needs positive geometry")
		}
		c.oblivious = true
		c.obliBuffer = bufferBlocks
		c.obliLevels = levels
		return nil
	}
}

// WithDaemon starts the idle-time dummy-traffic daemon (§4.1.3) on
// the mounted agent, adaptive by default; Stack.Close stops it.
// period <= 0 selects the default 250ms.
func WithDaemon(period time.Duration) Option {
	return func(c *mountConfig) error {
		c.daemon = true
		c.daemonPeriod = period
		return nil
	}
}

// WithDaemonBurst sizes the daemon's per-tick burst (one batched
// DummyUpdateBurst). Implies WithDaemon.
func WithDaemonBurst(period time.Duration, burst int) Option {
	return func(c *mountConfig) error {
		c.daemon = true
		c.daemonPeriod = period
		c.daemonBurst = burst
		return nil
	}
}

// WithTrace wraps the device so every access is published to t — the
// attacker's observation stream, outermost so it sees exactly what
// the storage sees.
func WithTrace(t Tracer) Option {
	return func(c *mountConfig) error {
		c.trace = t
		return nil
	}
}

// WithStripe aggregates members into one block-striped volume (§7's
// data-grid deployment); pass a nil device to Mount.
func WithStripe(members ...Device) Option {
	return func(c *mountConfig) error {
		if len(members) == 0 {
			return errors.New("steghide: WithStripe needs at least one member")
		}
		c.stripe = members
		return nil
	}
}

// WithVolumeName names the mounted volume for multi-volume serving:
// ServeListener and NewServer register each stack under its name, and
// remote clients pick one at login (the msgLogin volume field). The
// empty name is the default volume.
func WithVolumeName(name string) Option {
	return func(c *mountConfig) error {
		c.volName = name
		return nil
	}
}

// WithMetrics exports the stack's observability series through m:
// the scheduler's stream counters and latency/shape histograms,
// journal ring occupancy, daemon tick counters, and (Construction 2) a session-count gauge — all
// labeled by the stack's volume name. One registry may serve many
// stacks; series stay distinct per volume. Attaching a registry does
// not move a single observable byte (pinned by the metrics invariance
// oracle), and no hidden pathname, locator secret or real-vs-dummy
// classification ever reaches a series or label (DESIGN.md carries
// the per-metric leakage argument).
func WithMetrics(m *Metrics) Option {
	return func(c *mountConfig) error {
		if m == nil {
			return errors.New("steghide: WithMetrics needs a registry")
		}
		c.metrics = m
		return nil
	}
}

// WithLoginQuota caps every login's block budget on the mounted agent
// (Construction 2 only): a login whose registered footprint — real
// files, dummy cover and in-flight allocations — would exceed blocks
// sees ErrVolumeFull, exactly as on a full volume, and the check is a
// memory-only comparison so the rejection is timed like any other.
// Zero is rejected (omit the option for unlimited); per-login
// overrides go through Agent2().SetQuota.
func WithLoginQuota(blocks uint64) Option {
	return func(c *mountConfig) error {
		if blocks == 0 {
			return errors.New("steghide: WithLoginQuota needs a positive budget")
		}
		c.loginQuota = blocks
		return nil
	}
}

// WithSeed seeds the generator driving the agent's random choices, so
// a fixed seed replays a stack bit for bit. The volume's generator is
// a child of it: an opened volume's, and a formatted one's unless
// FormatOptions.FillSeed is set. Without it the seed comes from
// crypto/rand. An empty seed is refused: it would seed every draw from
// a public constant.
func WithSeed(seed []byte) Option {
	return func(c *mountConfig) error {
		if len(seed) == 0 {
			return errors.New("steghide: WithSeed needs a non-empty seed")
		}
		c.rng = prng.New(seed)
		return nil
	}
}

// Stack is a mounted steganographic stack: the (possibly wrapped)
// device, the volume, one agent construction, and the optional
// daemon, journal and oblivious cache, with one Close in the right
// order.
type Stack struct {
	name    string // volume name for multi-volume serving
	dev     Device // as the volume sees it (after trace wrapping)
	base    Device // the closable storage underneath the wrappers
	vol     *Volume
	agent1  *NonVolatileAgent
	agent2  *VolatileAgent
	daemon  *DummyDaemon
	cache   *ObliviousFS
	journal bool
	jpass   string
	secret  []byte
	bootRec *JournalReport
	metrics *Metrics
}

// Mount assembles a stack on dev. With no options it opens an
// existing volume behind a Construction-2 agent:
//
//	stack, err := steghide.Mount(dev,
//	    steghide.WithFormat(steghide.FormatOptions{}),
//	    steghide.WithDaemon(250*time.Millisecond))
//	...
//	fs, err := stack.Login("alice", "passphrase")
//
// The wrap order is stripe → trace (the tracer outermost, so it
// observes exactly the stream the storage serves), then format/open,
// agent, journal recovery, daemon.
func Mount(dev Device, opts ...Option) (*Stack, error) {
	cfg := &mountConfig{construction: 2}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}

	// Device assembly.
	if len(cfg.stripe) > 0 {
		if dev != nil {
			return nil, errors.New("steghide: pass a nil device with WithStripe")
		}
		striped, err := blockdev.NewStriped(cfg.stripe...)
		if err != nil {
			return nil, err
		}
		dev = striped
	}
	if dev == nil {
		return nil, errors.New("steghide: Mount needs a device (or WithStripe members)")
	}
	base := dev
	if cfg.trace != nil {
		dev = NewTracedDevice(dev, cfg.trace)
	}

	// Volume: its generator is a child of the stack's, unless the
	// caller seeded the format.
	rng := cfg.rng
	if rng == nil {
		rng = prng.New(mountEntropy())
	}
	var vol *Volume
	var err error
	if cfg.format != nil {
		fo := *cfg.format
		if cfg.journal && fo.JournalBlocks == 0 {
			fo.JournalBlocks = defaultJournalRing
		}
		if len(fo.FillSeed) == 0 {
			fo.FillSeed = rng.Child("volume").Bytes(32)
		}
		vol, err = Format(dev, fo)
	} else {
		vol, err = stegfs.Open(dev, rng.Child("volume"))
	}
	if err != nil {
		return nil, err
	}

	// Agent.
	s := &Stack{
		name: cfg.volName, dev: dev, base: base, vol: vol,
		journal: cfg.journal, jpass: cfg.journalPass, secret: cfg.secret,
	}
	switch cfg.construction {
	case 1:
		s.agent1, err = steghide.NewNonVolatile(vol, cfg.secret, rng)
		if err != nil {
			return nil, err
		}
	case 2:
		if cfg.oblivious {
			return nil, errors.New("steghide: WithObliviousCache requires WithConstruction1")
		}
		s.agent2 = steghide.NewVolatile(vol, rng)
		if cfg.loginQuota > 0 {
			s.agent2.SetDefaultQuota(cfg.loginQuota)
		}
	default:
		return nil, fmt.Errorf("steghide: unknown construction %d", cfg.construction)
	}
	if cfg.loginQuota > 0 && s.agent2 == nil {
		return nil, errors.New("steghide: WithLoginQuota requires Construction 2")
	}
	// Journal: enable, and recover where no out-of-band state is
	// needed (Construction 2 resolves incrementally at disclosure).
	if cfg.journal {
		if s.agent1 != nil {
			if err := s.agent1.EnableJournal(); err != nil {
				return nil, err
			}
		} else {
			if err := s.agent2.EnableJournal(steghide.JournalKey(vol, cfg.journalPass)); err != nil {
				return nil, err
			}
			rep, err := s.agent2.Recover()
			if err != nil {
				return nil, err
			}
			s.bootRec = rep
		}
	}

	// Oblivious read-hiding cache (Construction 1 only).
	if cfg.oblivious {
		cacheDev := NewMemDevice(vol.BlockSize()+64, ObliviousFootprint(cfg.obliBuffer, cfg.obliLevels))
		store, err := NewObliviousStore(ObliviousConfig{
			Dev:          cacheDev,
			Key:          DeriveKey(cfg.secret, "steghide-oblivious-cache"),
			BufferBlocks: cfg.obliBuffer,
			Levels:       cfg.obliLevels,
			RNG:          rng.Child("oblivious-cache"),
		})
		if err != nil {
			return nil, err
		}
		s.cache, err = oblivious.NewFS(store, vol, rng.Child("oblivious-fs"))
		if err != nil {
			return nil, err
		}
	}

	// Metrics: attached after the journal exists (so its series
	// register) but before the daemon starts — the scheduler's
	// instrumentation pointer must be in place before anything drives
	// concurrent updates.
	if cfg.metrics != nil {
		s.metrics = cfg.metrics
		if s.agent1 != nil {
			s.agent1.EnableMetrics(cfg.metrics, s.name)
		} else {
			s.agent2.EnableMetrics(cfg.metrics, s.name)
		}
	}

	// Dummy-traffic daemon.
	if cfg.daemon {
		var src steghide.DummySource = s.agent2
		if s.agent1 != nil {
			src = s.agent1
		}
		s.daemon = steghide.NewDaemon(src, cfg.daemonPeriod)
		if cfg.daemonBurst > 1 {
			s.daemon.WithBurst(cfg.daemonBurst)
		}
		if cfg.metrics != nil {
			s.daemon.EnableMetrics(cfg.metrics, s.name)
		}
		s.daemon.Start()
	}
	return s, nil
}

// mountEntropy seeds the default PRNG from the kernel's entropy pool.
// crypto/rand works on every platform and never silently degrades —
// the agent's RNG drives key placement and relocation draws, so a
// weak default seed would be a security bug, not an inconvenience.
func mountEntropy() []byte {
	b := make([]byte, 32)
	if _, err := rand.Read(b); err != nil {
		// Post-1.24 crypto/rand cannot fail on supported platforms;
		// treat a failure as unrecoverable rather than degrade.
		panic("steghide: cannot read entropy for the default RNG: " + err.Error())
	}
	return b
}

// VolumeName returns the name WithVolumeName gave the stack ("" when
// unnamed — the default volume on a multi-volume server).
func (s *Stack) VolumeName() string { return s.name }

// Device returns the stack's device as the volume sees it (after any
// stripe/trace wrapping).
func (s *Stack) Device() Device { return s.dev }

// Volume returns the mounted volume.
func (s *Stack) Volume() *Volume { return s.vol }

// Agent1 returns the Construction-1 agent, or nil for C2 stacks.
func (s *Stack) Agent1() *NonVolatileAgent { return s.agent1 }

// Agent2 returns the Construction-2 agent, or nil for C1 stacks.
func (s *Stack) Agent2() *VolatileAgent { return s.agent2 }

// Daemon returns the dummy-traffic daemon, or nil without WithDaemon.
func (s *Stack) Daemon() *DummyDaemon { return s.daemon }

// ObliviousCache returns the read-hiding composition, or nil without
// WithObliviousCache.
func (s *Stack) ObliviousCache() *ObliviousFS { return s.cache }

// BootRecovery returns the journal-recovery report Mount produced
// while bringing a journaled Construction-2 stack up, or nil.
func (s *Stack) BootRecovery() *JournalReport { return s.bootRec }

// Metrics returns the registry WithMetrics attached, or nil.
func (s *Stack) Metrics() *Metrics { return s.metrics }

// ServeListener exposes the stacks' agents to remote clients on ln: a
// single daemon fronting a fleet of mounted volumes, each registered
// under its WithVolumeName (at most one may be unnamed — it becomes the
// default volume). Clients route with DialFS's WithVolume; every
// stack must be Construction 2 (the remote agent protocol is the
// volatile agent's). The server takes ownership of ln, closing it on
// every error; closing the server does not close the stacks. NewServer
// adds an address, an ops endpoint and a drain bound.
func ServeListener(ln net.Listener, stacks ...*Stack) (*AgentServer, error) {
	return serve(ln, wire.ServeOptions{}, stacks)
}

// serve starts the agent server for the stacks on ln, closing ln if it
// cannot.
func serve(ln net.Listener, opts wire.ServeOptions, stacks []*Stack) (*AgentServer, error) {
	vols, err := serveVolumes(stacks)
	var srv *AgentServer
	if err == nil {
		srv, err = wire.NewAgentServer(ln, vols, opts)
	}
	if err != nil {
		ln.Close()
		return nil, err
	}
	return srv, nil
}

// serveVolumes validates and collects the stacks' volatile agents.
func serveVolumes(stacks []*Stack) (map[string]*VolatileAgent, error) {
	if len(stacks) == 0 {
		return nil, errors.New("steghide: serving needs at least one stack")
	}
	vols := make(map[string]*VolatileAgent, len(stacks))
	for _, s := range stacks {
		if s.agent2 == nil {
			return nil, fmt.Errorf("steghide: serve: volume %q is not Construction 2", s.name)
		}
		if _, taken := vols[s.name]; taken {
			return nil, fmt.Errorf("steghide: serve: duplicate volume name %q", s.name)
		}
		vols[s.name] = s.agent2
	}
	return vols, nil
}

// Login opens the unified FS for one principal. On a Construction-2
// stack it is a session login (passphrase-derived FAKs, forgotten at
// FS.Close). On a Construction-1 stack the passphrase is the user's
// locator secret. With the oblivious cache mounted, reads flow
// through it.
func (s *Stack) Login(user, passphrase string) (FS, error) {
	if s.agent2 != nil {
		sess, err := s.agent2.Login(user, passphrase)
		if err != nil {
			return nil, pathErr("login", user, err)
		}
		return newSessionFS(s.agent2, sess), nil
	}
	if s.cache != nil {
		return newObliviousReadFS(s.agent1, s.cache, passphrase), nil
	}
	return NewAgentFS(s.agent1, passphrase), nil
}

// Fsck verifies everything reachable with the given credentials
// (passphrase → paths) and, on journaled stacks, the intent ring.
// Either report may be nil when that check did not run (no
// credentials / no journal).
func (s *Stack) Fsck(creds map[string][]string) (*CheckReport, *JournalFsckReport, error) {
	var report *CheckReport
	var err error
	if len(creds) > 0 {
		report, err = stegfs.Check(s.vol, creds)
		if err != nil {
			return nil, nil, err
		}
	}
	var jrep *JournalFsckReport
	if s.journal {
		key := s.journalKey()
		jrep, err = journal.Fsck(s.vol, key)
		if err != nil {
			return report, nil, err
		}
	}
	return report, jrep, nil
}

// journalKey rebuilds the ring key the mounted agent uses: derived
// from the agent secret for Construction 1, from the administrator
// passphrase for Construction 2.
func (s *Stack) journalKey() Key {
	if s.agent1 != nil {
		return steghide.JournalKeyFromSecret(s.secret, "c1")
	}
	return steghide.JournalKey(s.vol, s.jpass)
}

// Recover replays the journal ring against the disk truth: for
// Construction 1 call it after Agent1().LoadState restored the last
// bitmap snapshot; for Construction 2 it re-arms disclosure-time
// resolution (Mount already ran it once).
func (s *Stack) Recover() (*JournalReport, error) {
	if s.agent1 != nil {
		return s.agent1.Recover()
	}
	return s.agent2.Recover()
}

// Close tears the stack down in dependency order: the daemon stops
// first (no dummy traffic against a closing device), Construction-2
// sessions still open are logged out (flushing their files),
// Construction-1 handles are saved and closed, and finally the device
// is closed if it is closable (file-backed, remote).
func (s *Stack) Close() error {
	if s.daemon != nil {
		s.daemon.Stop()
	}
	var firstErr error
	if s.agent2 != nil {
		if err := s.agent2.LogoutAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.agent1 != nil {
		if err := s.agent1.CloseAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c, ok := s.base.(io.Closer); ok {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
