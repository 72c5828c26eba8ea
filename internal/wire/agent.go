package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
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
	server
	vmu     sync.RWMutex
	volumes map[string]*steghide.VolatileAgent
}

// NewAgentServer serves every agent in volumes on ln, keyed by the
// volume name clients pass at login; an entry under the empty name is
// the default volume. opts attaches a structured lifecycle logger
// and/or a metrics registry (see ServeOptions for the privacy contract
// both honor); they are fixed here, because the accept loop starts
// before the constructor returns. The server owns ln once it is built.
func NewAgentServer(ln net.Listener, volumes map[string]*steghide.VolatileAgent, opts ServeOptions) (*AgentServer, error) {
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
	s := &AgentServer{volumes: vols}
	s.start(ln, maxBodySize, opts, s.serveConn)
	return s, nil
}

// serveConn serves one connection's requests. Transport lifetime
// enforces volatility: the connection dropping logs its user out,
// flushing the disclosed files.
func (s *AgentServer) serveConn(cs *connServer) {
	st := &connSession{remote: cs.conn.RemoteAddr().String()}
	cs.serve(func(ctx context.Context, req frame, limit uint64) frame {
		return s.handle(ctx, req, st, limit)
	})
	if sess, agent, user := st.get(); sess != nil {
		// serve's context is cancelled by now; the staged runs this
		// logout issues need one of their own.
		agent.Logout(context.Background(), user) //nolint:errcheck // best-effort cleanup
	}
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
		sess, err := agent.Login(u, pass)
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
		e := &encoder{}
		return e.u64(uint64(agent.Vol().PayloadSize())).frame(msgOK)

	case msgLogout:
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.sess == nil {
			return errFrame(steghide.ErrUnknownUser)
		}
		user := st.user
		err := st.agent.Logout(ctx, st.user)
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
		// The reply is leased at the bytes it carries, not the n asked
		// for (ReadFile asks for a chunk), bounded by the frame limit.
		size, _, err := sess.Stat(path)
		if err != nil {
			return errFrame(err)
		}
		n = min(n, size-min(off, size))
		if n > limit {
			return errFrame(fmt.Errorf("wire: read of %d bytes exceeds limit", n))
		}
		buf := mempool.Get(headerSize + int(n))
		got, err := sess.Read(path, buf[headerSize:], off)
		if err != nil {
			mempool.Recycle(buf)
			return errFrame(err)
		}
		return framed(msgOK, buf, got)
	case msgWriteV:
		// Every segment is decoded before any is staged, so a malformed
		// frame stages nothing; a failing step ends the run there.
		path, then, segs, err := decodeWriteV(req.Body)
		if err != nil {
			return errFrame(err)
		}
		for _, s := range segs {
			if err := sess.Stage(ctx, path, s.Data, s.Off); err != nil {
				return errFrame(err)
			}
		}
		if then.Truncate {
			if err := sess.Truncate(ctx, path, then.Size); err != nil {
				return errFrame(err)
			}
		}
		if then.Save {
			if err := sess.Save(ctx, path); err != nil {
				return errFrame(err)
			}
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
// call (create, WriteV, delete) is retried only when
// the fault provably preceded its first byte on the wire; otherwise
// it fails with ErrMaybeApplied and the caller must reconcile.
type Client struct {
	link // fixed at dial: direct or self-healing

	payload atomic.Int64 // the logged-in volume's payload size

	// Session replay state (retry mode only; a direct client retains no
	// credentials): the credentials and the disclosed working set,
	// re-established on every reconnect. The server's session died with
	// the old connection — volatility by transport lifetime — so the
	// client rebuilds it before the retried call runs.
	retry     bool
	smu       sync.Mutex
	loggedIn  bool
	volume    string
	user      string
	pass      string
	disclosed map[string]struct{}
}

// DialAgent connects to an agent server, honoring ctx while the
// connection is established and the protocol version negotiated.
func DialAgent(ctx context.Context, addr string) (*Client, error) {
	m, err := dialMux(ctx, addr, maxBodySize)
	if err != nil {
		return nil, err
	}
	return &Client{link: m}, nil
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
	c := &Client{retry: true, disclosed: map[string]struct{}{}}
	rd := newRedialer(policy, c.onConnect, addrs)
	if err := rd.dial(ctx); err != nil {
		return nil, err
	}
	c.link = rd
	return c, nil
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
		var resp frame
		resp, err = m.call(ctx, loginFrame(volume, user, pass))
		resp.release() // the payload size is the volume's, known already
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

// Close drops the connection (logging the user out server-side).
// Idempotent and safe to call concurrently with in-flight calls,
// which fail cleanly instead of racing the teardown.
func (c *Client) Close() error { return c.close() }

// Every operation is one call taking a context. The context's deadline
// bounds the whole round trip; cancellation abandons the in-flight
// request (sending msgCancel so the server stops working on it) and
// leaves the connection healthy for other calls.

// Ping probes the server's liveness: one round trip, answered before
// any login — a load balancer or fleet router can health-check a
// daemon without credentials.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, frame{Type: msgPing}, true)
	return err
}

// Login authenticates the connection's user on the named volume of the
// server; the empty name is the default volume, and a login to it
// omits the volume field. The reply carries the volume's payload size
// (PayloadSize).
func (c *Client) Login(ctx context.Context, volume, user, passphrase string) error {
	// Safe to retry: a retried login lands on a fresh connection, whose
	// server-side session cannot already be logged in.
	resp, err := c.do(ctx, loginFrame(volume, user, passphrase), true)
	if err != nil {
		return err
	}
	d := &decoder{b: resp.Body}
	payload := d.u64()
	resp.release()
	if d.err != nil {
		return d.err
	}
	c.payload.Store(int64(min(payload, maxBodySize)))
	if c.retry {
		c.smu.Lock()
		c.loggedIn = true
		c.volume, c.user, c.pass = volume, user, passphrase
		c.smu.Unlock()
	}
	return nil
}

// PayloadSize reports the file bytes one block of the logged-in volume
// holds, as its login reply said (0 before a login): what a client
// that stages writes counts blocks in, as the agent does.
func (c *Client) PayloadSize() int { return int(c.payload.Load()) }

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
	if !c.retry {
		return
	}
	c.smu.Lock()
	c.disclosed[path] = struct{}{}
	c.smu.Unlock()
}

// forget removes path from the replay set (retry mode only).
func (c *Client) forget(path string) {
	if !c.retry {
		return
	}
	c.smu.Lock()
	delete(c.disclosed, path)
	c.smu.Unlock()
}

// Logout ends the session, flushing disclosed files.
func (c *Client) Logout(ctx context.Context) error {
	// Safe to retry: a retried logout lands on a replayed session and
	// ends it just the same.
	_, err := c.do(ctx, frame{Type: msgLogout}, true)
	if err == nil && c.retry {
		c.smu.Lock()
		c.loggedIn = false
		c.volume, c.user, c.pass = "", "", ""
		c.disclosed = map[string]struct{}{}
		c.smu.Unlock()
	}
	return err
}

// Create creates a hidden file.
func (c *Client) Create(ctx context.Context, path string) error {
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
func (c *Client) CreateDummy(ctx context.Context, path string, blocks uint64) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).u64(blocks).frame(msgCreateDummy), false)
	if err == nil {
		c.remember(path)
	}
	return err
}

// Disclose opens an existing file, reporting whether it is a dummy
// and its size.
func (c *Client) Disclose(ctx context.Context, path string) (isDummy bool, size uint64, err error) {
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

// Read reads up to len(p) bytes at offset off of a disclosed file,
// fewer only at its end; a longer reply is cut at len(p).
func (c *Client) Read(ctx context.Context, path string, p []byte, off uint64) (int, error) {
	e := &encoder{}
	resp, err := c.do(ctx, e.str(path).u64(off).u64(uint64(len(p))).frame(msgRead), true)
	if err != nil {
		return 0, err
	}
	n := copy(p, resp.Body)
	resp.release()
	return n, nil
}

// Segment is one write of a vectored write: Data at byte offset Off.
type Segment struct {
	Off  uint64
	Data []byte
}

// Then is what a WriteV does after its segments: resize the file to
// Size when Truncate is set, then save it when Save is.
type Then struct {
	Truncate bool
	Size     uint64
	Save     bool
}

// WriteV stages segs into a disclosed file, in order, each as one write
// into the file's open run, then truncates and saves it as then asks
// (a save issues the run and flushes the block map). It is one round
// trip however many segments ride in it. A failing step ends the call,
// the steps before it applied. Not idempotent: a retry client re-sends
// it only when the frame provably never left.
func (c *Client) WriteV(ctx context.Context, path string, then Then, segs ...Segment) error {
	_, err := c.do(ctx, writeVFrame(path, then, segs), false)
	return err
}

// writeVFrame encodes a msgWriteV body: the path, the flags (bit 0
// save, bit 1 truncate), the target size, the segment count, then each
// segment's offset and bytes.
func writeVFrame(path string, then Then, segs []Segment) frame {
	n := 32 + len(path)
	for _, s := range segs {
		n += 16 + len(s.Data)
	}
	var flags uint64
	if then.Save {
		flags |= 1
	}
	if then.Truncate {
		flags |= 2
	}
	e := newEncoder(n)
	e.str(path).u64(flags).u64(then.Size).u64(uint64(len(segs)))
	for _, s := range segs {
		e.u64(s.Off).bytes(s.Data)
	}
	return e.frame(msgWriteV)
}

// decodeWriteV parses a msgWriteV body. A segment is at least its two
// 8-byte fields, so the count is checked against what the rest of the
// body can hold before the segment list is allocated: a lying count
// cannot drive the allocation. Unknown flags, and a size without the
// truncate flag, are malformed. Segment data are views into body.
func decodeWriteV(body []byte) (path string, then Then, segs []Segment, err error) {
	d := &decoder{b: body}
	path = d.str()
	flags, size, n := d.u64(), d.u64(), d.u64()
	switch {
	case d.err != nil:
		return "", Then{}, nil, d.err
	case flags > 3:
		return "", Then{}, nil, fmt.Errorf("wire: write with flags %#x", flags)
	case flags&2 == 0 && size != 0:
		return "", Then{}, nil, fmt.Errorf("wire: write with size %d and no truncate", size)
	case n > uint64(len(d.b))/16:
		return "", Then{}, nil, fmt.Errorf("wire: write of %d segments out of bounds", n)
	}
	segs = make([]Segment, n)
	for i := range segs {
		segs[i].Off = d.u64()
		segs[i].Data = d.raw()
	}
	if d.err != nil {
		return "", Then{}, nil, d.err
	}
	return path, Then{Truncate: flags&2 != 0, Size: size, Save: flags&1 != 0}, segs, nil
}

// Delete removes a disclosed file, donating its blocks to the user's
// dummy files.
func (c *Client) Delete(ctx context.Context, path string) error {
	e := &encoder{}
	_, err := c.do(ctx, e.str(path).frame(msgDelete), false)
	if err == nil {
		c.forget(path)
	}
	return err
}

// Files lists the session's disclosed real-file paths, sorted.
func (c *Client) Files(ctx context.Context) ([]string, error) {
	resp, err := c.do(ctx, frame{Type: msgList}, true)
	if err != nil {
		return nil, err
	}
	defer resp.release() // str() copies every path out of the body
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
		paths = append(paths, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	return paths, nil
}
