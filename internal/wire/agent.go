package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"steghide/internal/mempool"
	"steghide/internal/steghide"
)

// AgentServer exposes volatile agents (Construction 2) to clients
// over TCP. One daemon fronts a fleet of volumes: each mounted volume
// is registered under a name, and msgLogin picks the volume the
// connection's session lives on (the empty name is the default
// volume).
//
// Each connection is one user's channel; the login state is
// connection-scoped, and dropping the connection logs the user out —
// the volatility property, enforced by transport lifetime.
//
// Connections are served concurrently, and so are the requests
// *within* one connection: a bounded number of a session's calls
// overlap (the per-volume scheduler in internal/sched merges all
// sessions' intents into one uniformly random stream, so overlapping
// is safe), with backpressure once that many are in flight.
type AgentServer struct {
	vmu     sync.RWMutex
	volumes map[string]*steghide.VolatileAgent
	ln      net.Listener
	wg      sync.WaitGroup

	maxFrame uint64

	// Observability attachments (ServeOptions); both nil-safe.
	log     *slog.Logger
	metrics *serverMetrics

	// Graceful-drain state: live connections, and whether Shutdown has
	// begun (after which new connections are refused).
	cmu   sync.Mutex
	conns map[*connServer]struct{}
	down  bool
}

// NewAgentServer starts serving a single agent on addr as the default
// (unnamed) volume.
func NewAgentServer(addr string, agent *steghide.VolatileAgent) (*AgentServer, error) {
	return NewMultiAgentServer(addr, map[string]*steghide.VolatileAgent{"": agent})
}

// NewMultiAgentServer starts one daemon serving every agent in
// volumes, keyed by the volume name clients pass at login. An entry
// under the empty name is the default volume.
func NewMultiAgentServer(addr string, volumes map[string]*steghide.VolatileAgent) (*AgentServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s, err := newAgentServer(ln, volumes, maxBodySize, ServeOptions{})
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// NewMultiAgentServerListener is NewMultiAgentServer over an already
// established listener — the injection point a fleet router (or a
// chaos harness wrapping the listener in fault injection) uses to
// control the transport the daemon serves on. The server owns ln from
// here on.
func NewMultiAgentServerListener(ln net.Listener, volumes map[string]*steghide.VolatileAgent) (*AgentServer, error) {
	return newAgentServer(ln, volumes, maxBodySize, ServeOptions{})
}

// NewMultiAgentServerListenerOpts is NewMultiAgentServerListener with
// observability attachments: a structured lifecycle logger and/or a
// metrics registry (see ServeOptions for the privacy contract both
// honor). Attachments are fixed at construction — the accept loop
// starts before the constructor returns, so there is no later moment
// to install them race-free.
func NewMultiAgentServerListenerOpts(ln net.Listener, volumes map[string]*steghide.VolatileAgent, opts ServeOptions) (*AgentServer, error) {
	return newAgentServer(ln, volumes, maxBodySize, opts)
}

// newAgentServer is the core; the frame limit it offers must be fixed
// before the accept loop can hand a connection to it.
func newAgentServer(ln net.Listener, volumes map[string]*steghide.VolatileAgent, maxFrame uint64, opts ServeOptions) (*AgentServer, error) {
	if len(volumes) == 0 {
		return nil, fmt.Errorf("wire: agent server needs at least one volume")
	}
	vols := make(map[string]*steghide.VolatileAgent, len(volumes))
	for name, agent := range volumes {
		if agent == nil {
			return nil, fmt.Errorf("wire: volume %q has no agent", name)
		}
		vols[name] = agent
	}
	s := &AgentServer{
		volumes:  vols,
		ln:       ln,
		maxFrame: maxFrame,
		log:      opts.Logger,
		metrics:  newServerMetrics(opts.Metrics),
		conns:    map[*connServer]struct{}{},
	}
	if reg := opts.Metrics; reg != nil {
		// Scrape-time gauges over the connection table. The counts are
		// facts the network side already exposes (TCP connections and
		// outstanding frames are visible on the path); nothing about
		// what the requests do is sampled.
		reg.GaugeFunc("steghide_wire_active_connections",
			"connections currently served", func() float64 {
				s.cmu.Lock()
				defer s.cmu.Unlock()
				return float64(len(s.conns))
			})
		reg.GaugeFunc("steghide_wire_inflight_requests",
			"requests dispatched but not yet replied, across all connections",
			func() float64 {
				s.cmu.Lock()
				defer s.cmu.Unlock()
				var n int64
				for cs := range s.conns {
					n += cs.inflightN.Load()
				}
				return float64(n)
			})
		reg.GaugeFunc("steghide_wire_draining",
			"1 while Shutdown is draining connections, else 0", func() float64 {
				if s.Draining() {
					return 1
				}
				return 0
			})
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Draining reports whether Shutdown has begun — the bit an ops
// health endpoint turns into a 503 so load balancers steer away
// while in-flight requests finish.
func (s *AgentServer) Draining() bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.down
}

// AddVolume registers another mounted volume under name while the
// server runs; it fails if the name is taken.
func (s *AgentServer) AddVolume(name string, agent *steghide.VolatileAgent) error {
	if agent == nil {
		return fmt.Errorf("wire: volume %q has no agent", name)
	}
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if _, taken := s.volumes[name]; taken {
		return fmt.Errorf("wire: volume %q already served", name)
	}
	s.volumes[name] = agent
	return nil
}

// Volumes lists the served volume names, sorted.
func (s *AgentServer) Volumes() []string {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	out := make([]string, 0, len(s.volumes))
	for name := range s.volumes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a volume name to its agent.
func (s *AgentServer) lookup(name string) *steghide.VolatileAgent {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.volumes[name]
}

// Addr returns the server's listen address.
func (s *AgentServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connections to drain.
func (s *AgentServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting, tells
// every connection to take its next call elsewhere (msgGoaway), lets
// in-flight requests finish and their replies land, then closes the
// connections and returns. ctx bounds the drain — on expiry the
// remaining connections are closed abruptly, exactly the semantics a
// plain close always had, and ctx's error is returned.
func (s *AgentServer) Shutdown(ctx context.Context) error {
	s.cmu.Lock()
	s.down = true
	conns := make([]*connServer, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.cmu.Unlock()
	if s.log != nil {
		s.log.Info("wire: shutdown draining", "connections", len(conns))
	}
	s.ln.Close() //nolint:errcheck // re-Shutdown / racing Close
	var dwg sync.WaitGroup
	for _, cs := range conns {
		dwg.Add(1)
		go func(cs *connServer) {
			defer dwg.Done()
			cs.drain(ctx)
		}(cs)
	}
	dwg.Wait()
	s.wg.Wait()
	if s.log != nil {
		s.log.Info("wire: shutdown complete")
	}
	return ctx.Err()
}

// track registers a live connection, refusing once Shutdown began.
func (s *AgentServer) track(cs *connServer) bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.down {
		return false
	}
	s.conns[cs] = struct{}{}
	return true
}

func (s *AgentServer) untrack(cs *connServer) {
	s.cmu.Lock()
	delete(s.conns, cs)
	s.cmu.Unlock()
}

func (s *AgentServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			st := &connSession{remote: conn.RemoteAddr().String()}
			cs := newConnServer(conn, s.maxFrame, s.log, s.metrics)
			if !s.track(cs) {
				return // raced Shutdown: the listener is already closed
			}
			defer s.untrack(cs)
			if s.metrics != nil {
				s.metrics.connections.Inc()
			}
			cs.logEvent("wire: connection accepted")
			cs.serve(func(ctx context.Context, req frame, limit uint64) frame {
				return s.handle(ctx, req, st, limit)
			})
			// Transport lifetime enforces volatility: the connection
			// dropping logs the user out, flushing disclosed files.
			if sess, agent, user := st.get(); sess != nil {
				agent.Logout(user) //nolint:errcheck // best-effort cleanup
			}
		}()
	}
}

// connSession is one connection's login state. The goroutines serving
// its pipelined requests share it, so access is mutex-guarded; the
// session object itself is safe for concurrent use (PR 2's scheduler
// merges all its I/O into the volume's update stream).
type connSession struct {
	remote string // peer address, fixed at accept (for log correlation)

	mu    sync.Mutex
	sess  *steghide.Session
	user  string
	agent *steghide.VolatileAgent
}

func (st *connSession) get() (*steghide.Session, *steghide.VolatileAgent, string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sess, st.agent, st.user
}

func (s *AgentServer) handle(ctx context.Context, req frame, st *connSession, limit uint64) frame {
	if err := ctx.Err(); err != nil {
		return errFrame(fmt.Errorf("wire: %w", err))
	}
	d := &decoder{b: req.Body}
	switch req.Type {
	case msgLogin:
		u := d.str()
		pass := d.str()
		volume := ""
		if d.err == nil && len(d.b) > 0 {
			// A login to the default volume ends after the passphrase.
			volume = d.str()
		}
		if d.err != nil {
			return errFrame(d.err)
		}
		agent := s.lookup(volume)
		if agent == nil {
			return errFrame(fmt.Errorf("%w: %q", ErrUnknownVolume, volume))
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.sess != nil {
			return errFrame(fmt.Errorf("wire: already logged in"))
		}
		sess, err := agent.LoginWithPassphrase(u, pass)
		if err != nil {
			return errFrame(err)
		}
		st.sess = sess
		st.user = u
		st.agent = agent
		s.metrics.login(volume)
		if s.log != nil {
			// Username and volume name ride the login frame in the
			// clear — already wire-visible. The passphrase is not
			// logged, here or anywhere.
			s.log.Info("wire: login", "user", u, "volume", volume, "remote", st.remote)
		}
		return frame{Type: msgOK}

	case msgLogout:
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.sess == nil {
			return errFrame(steghide.ErrUnknownUser)
		}
		user := st.user
		err := st.agent.LogoutCtx(ctx, st.user)
		st.sess = nil
		st.user = ""
		st.agent = nil
		if err != nil {
			return errFrame(err)
		}
		if s.log != nil {
			s.log.Info("wire: logout", "user", user, "remote", st.remote)
		}
		return frame{Type: msgOK}
	}

	sess, _, _ := st.get()
	if sess == nil {
		return errFrame(fmt.Errorf("wire: not logged in"))
	}
	switch req.Type {
	case msgCreate:
		path := d.str()
		if d.err != nil {
			return errFrame(d.err)
		}
		if _, err := sess.Create(path); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgCreateDummy:
		path := d.str()
		blocks := d.u64()
		if d.err != nil {
			return errFrame(d.err)
		}
		if _, err := sess.CreateDummy(path, blocks); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgDisclose:
		path := d.str()
		if d.err != nil {
			return errFrame(d.err)
		}
		f, err := sess.Disclose(path)
		if err != nil {
			return errFrame(err)
		}
		e := &encoder{}
		var dummy uint64
		if f.IsDummy() {
			dummy = 1
		}
		return e.u64(dummy).u64(f.Size()).frame(msgOK)
	case msgRead:
		path := d.str()
		off := d.u64()
		n := d.u64()
		if d.err != nil {
			return errFrame(d.err)
		}
		if n > limit {
			return errFrame(fmt.Errorf("wire: read of %d bytes exceeds limit", n))
		}
		// n is bounded by the negotiated frame limit (above) before any
		// allocation; the reply buffer is leased from the memory plane
		// and returned once the reply frame is written.
		buf := mempool.Get(headerSize + int(n))
		got, err := sess.Read(path, buf[headerSize:], off)
		if err != nil {
			mempool.Recycle(buf)
			return errFrame(err)
		}
		return framed(msgOK, buf, got)
	case msgWrite:
		path := d.str()
		off := d.u64()
		data := d.raw()
		if d.err != nil {
			return errFrame(d.err)
		}
		if err := sess.StageCtx(ctx, path, data, off); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgSave:
		path := d.str()
		if d.err != nil {
			return errFrame(d.err)
		}
		if err := sess.SaveCtx(ctx, path); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgDelete:
		path := d.str()
		if d.err != nil {
			return errFrame(d.err)
		}
		if err := sess.Delete(path); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgTruncate:
		path := d.str()
		size := d.u64()
		if d.err != nil {
			return errFrame(d.err)
		}
		if err := sess.TruncateCtx(ctx, path, size); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgList:
		paths := sess.Files() // sorted — listings are stable on the wire
		e := &encoder{}
		e.u64(uint64(len(paths)))
		for _, p := range paths {
			e.str(p)
		}
		return e.frame(msgOK)
	default:
		return errFrame(fmt.Errorf("wire: unknown message type %#x", req.Type))
	}
}

// Client is a user's connection to an AgentServer. It is safe for
// concurrent use: every method call is one pipelined in-flight
// request, and cancelling one call's context abandons just that
// request — the connection stays healthy; a transport fault latches it
// broken (ErrConnBroken).
//
// A client dialed with DialAgentRetry self-heals instead of latching:
// a transport fault redials with backoff, replays the login and every
// disclosure (credentials are retained client-side for exactly this),
// and retries the interrupted call if it is read-class. A mutating
// call (create, write, save, delete, truncate) is retried only when
// the fault provably preceded its first byte on the wire; otherwise
// it fails with ErrMaybeApplied and the caller must reconcile.
type Client struct {
	m  *muxConn  // direct mode; nil in retry mode
	rd *Redialer // retry mode; nil in direct mode

	// Session replay state (retry mode only): the credentials and the
	// disclosed working set, re-established on every reconnect. The
	// server's session died with the old connection — volatility by
	// transport lifetime — so the client rebuilds it before the retried
	// call runs.
	smu       sync.Mutex
	loggedIn  bool
	volume    string
	user      string
	pass      string
	disclosed map[string]struct{}
}

// DialAgent connects to an agent server.
func DialAgent(addr string) (*Client, error) {
	return DialAgentCtx(context.Background(), addr)
}

// DialAgentCtx is DialAgent honoring the context while the
// connection is established and the protocol version negotiated.
func DialAgentCtx(ctx context.Context, addr string) (*Client, error) {
	m, err := dialMux(ctx, addr, maxBodySize)
	if err != nil {
		return nil, err
	}
	return &Client{m: m}, nil
}

// DialAgentRetry connects with self-healing: transport faults redial
// (rotating through addrs — extra addresses are fleet replicas or the
// same daemon's next incarnation) with backoff under policy's budget,
// and the session replays on every reconnect. The initial dial
// retries too, so a client can be started before its daemon is up.
func DialAgentRetry(ctx context.Context, policy RetryPolicy, addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("wire: no agent addresses")
	}
	c := &Client{disclosed: map[string]struct{}{}}
	rd := newRedialer(policy, maxBodySize, addrs...)
	rd.onConnect = c.onConnect
	c.rd = rd
	for attempt := 0; ; attempt++ {
		_, err := rd.acquire(ctx)
		if err == nil {
			return c, nil
		}
		if !transient(err) || attempt >= rd.policy.MaxRetries {
			rd.close() //nolint:errcheck // nothing live yet
			return nil, err
		}
		if serr := rd.sleep(ctx, attempt); serr != nil {
			rd.close() //nolint:errcheck // nothing live yet
			return nil, serr
		}
	}
}

// onConnect replays the session onto a fresh connection: login, then
// every disclosed path, in sorted order (stable replay order, like
// every other deliberate ordering in this codebase). A disclosure the
// server now cleanly refuses (the file is gone) is dropped from the
// replay set rather than failing the reconnect — the next direct use
// of that path reports the refusal to its caller.
func (c *Client) onConnect(ctx context.Context, m *muxConn) error {
	c.smu.Lock()
	loggedIn, volume, user, pass := c.loggedIn, c.volume, c.user, c.pass
	paths := make([]string, 0, len(c.disclosed))
	for p := range c.disclosed {
		paths = append(paths, p)
	}
	c.smu.Unlock()
	if !loggedIn {
		return nil
	}
	sort.Strings(paths)
	if err := c.replayLogin(ctx, m, volume, user, pass); err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := m.call(ctx, discloseFrame(p)); err != nil {
			if errors.Is(err, ErrRemote) {
				c.smu.Lock()
				delete(c.disclosed, p)
				c.smu.Unlock()
				continue
			}
			return err
		}
	}
	return nil
}

// replayLogin re-authenticates on a fresh connection. The old
// connection's death triggers a server-side implicit logout (flushing
// the user's files), and the replayed login can race ahead of that
// flush — the server reports ErrUserBusy while it lasts — so busy
// answers are retried briefly before giving up.
func (c *Client) replayLogin(ctx context.Context, m *muxConn, volume, user, pass string) error {
	var err error
	for i := 0; i < 200; i++ {
		_, err = m.call(ctx, loginFrame(volume, user, pass))
		if err == nil || !errors.Is(err, steghide.ErrUserBusy) {
			return err
		}
		t := time.NewTimer(5 * time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("wire: %w", ctx.Err())
		}
	}
	return err
}

// ProtoVersion reports the negotiated protocol version.
func (c *Client) ProtoVersion() int { return protoV2 }

// do runs one exchange on the mux and ends the request's lease.
// idempotent marks requests the retry layer may re-send even if the
// server already executed them; it is ignored in direct (non-retry)
// mode.
func (c *Client) do(ctx context.Context, req frame, idempotent bool) (frame, error) {
	if c.rd != nil {
		return c.rd.call(ctx, req, idempotent)
	}
	return c.m.call(ctx, req)
}

// Close drops the connection (logging the user out server-side).
// Idempotent and safe to call concurrently with in-flight calls,
// which fail cleanly instead of racing the teardown.
func (c *Client) Close() error {
	if c.rd != nil {
		return c.rd.close()
	}
	return c.m.close()
}

// Ping probes the server's liveness: one round trip, answered before
// any login — a load balancer or fleet router can health-check a
// daemon without credentials.
func (c *Client) Ping() error { return c.PingCtx(context.Background()) }

// PingCtx is Ping honoring the context at the wire wait point.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.do(ctx, frame{Type: msgPing}, true)
	return err
}

// Every operation has a context-honoring form; the plain methods are
// the same call under context.Background(). The context's deadline
// bounds the whole round trip; cancellation abandons the in-flight
// request (sending msgCancel so the server stops working on it) and
// leaves the connection healthy for other calls.

// Login authenticates the connection's user on the default volume.
func (c *Client) Login(user, passphrase string) error {
	return c.LoginCtx(context.Background(), user, passphrase)
}

// LoginCtx is Login honoring the context at the wire wait point.
func (c *Client) LoginCtx(ctx context.Context, user, passphrase string) error {
	return c.LoginVolumeCtx(ctx, "", user, passphrase)
}

// LoginVolume authenticates the connection's user on the named volume
// of a multi-volume server (the empty name is the default volume).
func (c *Client) LoginVolume(volume, user, passphrase string) error {
	return c.LoginVolumeCtx(context.Background(), volume, user, passphrase)
}

// LoginVolumeCtx is LoginVolume honoring the context at the wire wait
// point. Logins to the default volume omit the volume field.
func (c *Client) LoginVolumeCtx(ctx context.Context, volume, user, passphrase string) error {
	// Safe to retry: a retried login lands on a fresh connection, whose
	// server-side session cannot already be logged in.
	_, err := c.do(ctx, loginFrame(volume, user, passphrase), true)
	if err == nil && c.rd != nil {
		c.smu.Lock()
		c.loggedIn = true
		c.volume, c.user, c.pass = volume, user, passphrase
		c.smu.Unlock()
	}
	return err
}

// loginFrame encodes a login request.
func loginFrame(volume, user, passphrase string) frame {
	e := &encoder{}
	e.str(user).str(passphrase)
	if volume != "" {
		e.str(volume)
	}
	return e.frame(msgLogin)
}

// discloseFrame encodes a disclosure request.
func discloseFrame(path string) frame {
	e := &encoder{}
	return e.str(path).frame(msgDisclose)
}

// remember records path into the replay set (retry mode only).
func (c *Client) remember(path string) {
	if c.rd == nil {
		return
	}
	c.smu.Lock()
	c.disclosed[path] = struct{}{}
	c.smu.Unlock()
}

// forget removes path from the replay set (retry mode only).
func (c *Client) forget(path string) {
	if c.rd == nil {
		return
	}
	c.smu.Lock()
	delete(c.disclosed, path)
	c.smu.Unlock()
}

// Logout ends the session, flushing disclosed files.
func (c *Client) Logout() error { return c.LogoutCtx(context.Background()) }

// LogoutCtx is Logout honoring the context at the wire wait point.
func (c *Client) LogoutCtx(ctx context.Context) error {
	// Safe to retry: a retried logout lands on a replayed session and
	// ends it just the same.
	_, err := c.do(ctx, frame{Type: msgLogout}, true)
	if err == nil && c.rd != nil {
		c.smu.Lock()
		c.loggedIn = false
		c.volume, c.user, c.pass = "", "", ""
		c.disclosed = map[string]struct{}{}
		c.smu.Unlock()
	}
	return err
}

// Create creates a hidden file.
func (c *Client) Create(path string) error { return c.CreateCtx(context.Background(), path) }

// CreateCtx is Create honoring the context at the wire wait point.
func (c *Client) CreateCtx(ctx context.Context, path string) error {
	e := &encoder{}
	// Mutating: retried only when provably unsent (ErrMaybeApplied
	// otherwise — the file may exist now).
	_, err := c.do(ctx, e.str(path).frame(msgCreate), false)
	if err == nil {
		c.remember(path) // a created file is open in the session
	}
	return err
}

// CreateDummy creates and discloses a dummy file of n blocks.
func (c *Client) CreateDummy(path string, blocks uint64) error {
	return c.CreateDummyCtx(context.Background(), path, blocks)
}

// CreateDummyCtx is CreateDummy honoring the context at the wire wait
// point.
func (c *Client) CreateDummyCtx(ctx context.Context, path string, blocks uint64) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).u64(blocks).frame(msgCreateDummy), false)
	if err == nil {
		c.remember(path)
	}
	return err
}

// Disclose opens an existing file, reporting whether it is a dummy
// and its size.
func (c *Client) Disclose(path string) (isDummy bool, size uint64, err error) {
	return c.DiscloseCtx(context.Background(), path)
}

// DiscloseCtx is Disclose honoring the context at the wire wait point.
func (c *Client) DiscloseCtx(ctx context.Context, path string) (isDummy bool, size uint64, err error) {
	resp, err := c.do(ctx, discloseFrame(path), true)
	if err != nil {
		return false, 0, err
	}
	c.remember(path)
	d := &decoder{b: resp.Body}
	dummy := d.u64()
	size = d.u64()
	resp.release()
	if d.err != nil {
		return false, 0, d.err
	}
	return dummy == 1, size, nil
}

// Read reads up to len(p) bytes at offset off of a disclosed file.
func (c *Client) Read(path string, p []byte, off uint64) (int, error) {
	return c.ReadCtx(context.Background(), path, p, off)
}

// ReadCtx is Read honoring the context at the wire wait point.
func (c *Client) ReadCtx(ctx context.Context, path string, p []byte, off uint64) (int, error) {
	e := &encoder{}
	resp, err := c.do(ctx, e.str(path).u64(off).u64(uint64(len(p))).frame(msgRead), true)
	if err != nil {
		return 0, err
	}
	n := copy(p, resp.Body)
	resp.release()
	return n, nil
}

// Write writes data at offset off of a disclosed file.
func (c *Client) Write(path string, data []byte, off uint64) error {
	return c.WriteCtx(context.Background(), path, data, off)
}

// WriteCtx is Write honoring the context at the wire wait point.
func (c *Client) WriteCtx(ctx context.Context, path string, data []byte, off uint64) error {
	e := newEncoder(24 + len(path) + len(data))
	_, err := c.do(ctx, e.str(path).u64(off).bytes(data).frame(msgWrite), false)
	return err
}

// Save flushes a disclosed file's block map.
func (c *Client) Save(path string) error { return c.SaveCtx(context.Background(), path) }

// SaveCtx is Save honoring the context at the wire wait point.
func (c *Client) SaveCtx(ctx context.Context, path string) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).frame(msgSave), false)
	return err
}

// Delete removes a disclosed file, donating its blocks to the user's
// dummy files.
func (c *Client) Delete(path string) error { return c.DeleteCtx(context.Background(), path) }

// DeleteCtx is Delete honoring the context at the wire wait point.
func (c *Client) DeleteCtx(ctx context.Context, path string) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).frame(msgDelete), false)
	if err == nil {
		c.forget(path)
	}
	return err
}

// Truncate resizes a disclosed file to size bytes.
func (c *Client) Truncate(path string, size uint64) error {
	return c.TruncateCtx(context.Background(), path, size)
}

// TruncateCtx is Truncate honoring the context at the wire wait
// point.
func (c *Client) TruncateCtx(ctx context.Context, path string, size uint64) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).u64(size).frame(msgTruncate), false)
	return err
}

// Files lists the session's disclosed real-file paths, sorted.
func (c *Client) Files() ([]string, error) { return c.FilesCtx(context.Background()) }

// FilesCtx is Files honoring the context at the wire wait point.
func (c *Client) FilesCtx(ctx context.Context) ([]string, error) {
	resp, err := c.do(ctx, frame{Type: msgList}, true)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: resp.Body}
	n := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	// The entry count cannot exceed what the (already size-bounded)
	// body can hold, so a lying count cannot drive the allocation.
	if n > uint64(len(d.b))/8 {
		return nil, fmt.Errorf("wire: listing of %d entries out of bounds", n)
	}
	paths := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		paths = append(paths, d.str()) // str() copies out of the body
	}
	resp.release()
	if d.err != nil {
		return nil, d.err
	}
	return paths, nil
}
