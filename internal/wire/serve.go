package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connWorkers bounds the requests one connection has in flight: that
// many goroutines take turns reading it, and once each is inside a
// handler nobody reads — backpressure reaches the client through TCP
// flow control instead of a queue.
const connWorkers = 8

// handlerFunc serves one request frame, on the goroutine that read it
// and concurrently with the connection's other in-flight requests; ctx
// is cancelled when the client sends msgCancel for this request (or a
// reply cannot be written). limit is the connection's negotiated frame
// bound — reply bodies must stay under it, or a conforming peer will
// (rightly) drop the connection.
type handlerFunc func(ctx context.Context, req frame, limit uint64) frame

// server is the transport core StorageServer and AgentServer share:
// the listener and its accept loop, the live-connection table and the
// drain flag. The protocol is the serveConn func it starts with.
type server struct {
	ln       net.Listener
	maxFrame uint64
	wg       sync.WaitGroup

	// Observability attachments (ServeOptions); both nil-safe.
	log     *slog.Logger
	metrics *serverMetrics

	// Graceful-drain state: live connections, and whether Shutdown has
	// begun (after which new connections are refused).
	mu    sync.Mutex
	conns map[*connServer]struct{}
	down  bool
}

// start fixes the frame limit and the attachments, then accepts on ln
// until it closes, running serveConn on each connection. Nothing is
// set after start: the accept loop hands connections out from here on.
func (s *server) start(ln net.Listener, maxFrame uint64, opts ServeOptions, serveConn func(*connServer)) {
	s.ln, s.maxFrame = ln, maxFrame
	s.log, s.metrics = opts.Logger, newServerMetrics(opts.Metrics)
	s.conns = map[*connServer]struct{}{}
	if reg := opts.Metrics; reg != nil {
		// Scrape-time gauges over the connection table. The counts are
		// facts the network side already exposes (TCP connections and
		// outstanding frames are visible on the path); nothing about
		// what the requests do is sampled.
		reg.GaugeFunc("steghide_wire_active_connections",
			"connections currently served", func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.conns))
			})
		reg.GaugeFunc("steghide_wire_inflight_requests",
			"requests dispatched but not yet replied, across all connections",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
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
	go s.acceptLoop(serveConn)
}

// Addr returns the server's listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connections to drain.
func (s *server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Draining reports whether Shutdown has begun — the bit an ops
// health endpoint turns into a 503 so load balancers steer away
// while in-flight requests finish.
func (s *server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Shutdown gracefully drains the server: it stops accepting, tells
// every connection to take its next call elsewhere (msgGoaway), lets
// in-flight requests finish and their replies land, then closes the
// connections and returns. ctx bounds the drain — on expiry the
// remaining connections are closed abruptly, exactly the semantics a
// plain close always had, and ctx's error is returned.
func (s *server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.down = true
	conns := make([]*connServer, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.mu.Unlock()
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
func (s *server) track(cs *connServer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	s.conns[cs] = struct{}{}
	return true
}

func (s *server) untrack(cs *connServer) {
	s.mu.Lock()
	delete(s.conns, cs)
	s.mu.Unlock()
}

func (s *server) acceptLoop(serveConn func(*connServer)) {
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
			cs := newConnServer(conn, s.maxFrame, s.log, s.metrics)
			if !s.track(cs) {
				return // raced Shutdown: the listener is already closed
			}
			defer s.untrack(cs)
			if s.metrics != nil {
				s.metrics.connections.Inc()
			}
			cs.logEvent("wire: connection accepted")
			serveConn(cs)
		}()
	}
}

// connServer drives one accepted connection through version
// negotiation and then the request loop.
type connServer struct {
	conn net.Conn
	// br is the connection's one reader, the hello included; after the
	// hello only the holder of the read token touches it.
	br       *bufio.Reader
	maxFrame uint64 // server's offer; lowered to the negotiated value

	// Observability attachments, both nil-safe (see ServeOptions).
	log     *slog.Logger
	metrics *serverMetrics

	wmu sync.Mutex // one reply frame at a time on the socket

	// Drain bookkeeping: requests read but not yet replied, and whether
	// the hello is done (before it the peer expects no other frame, a
	// goaway included).
	inflightN  atomic.Int64
	negotiated atomic.Bool
}

// newConnServer wraps an accepted connection.
func newConnServer(conn net.Conn, maxFrame uint64, log *slog.Logger, metrics *serverMetrics) *connServer {
	return &connServer{conn: conn, br: bufio.NewReaderSize(conn, connReadBuf),
		maxFrame: maxFrame, log: log, metrics: metrics}
}

// logEvent emits one lifecycle record tagged with the peer address —
// a fact the network already shows anyone on the path.
func (cs *connServer) logEvent(msg string, attrs ...any) {
	if cs.log == nil {
		return
	}
	cs.log.Info(msg, append([]any{"remote", cs.conn.RemoteAddr().String()}, attrs...)...)
}

// countRequest bumps the dispatched-request counter.
func (cs *connServer) countRequest() {
	if cs.metrics != nil {
		cs.metrics.requests.Inc()
	}
}

// closedByPeer reports whether a read-loop error is a clean
// teardown — EOF from the peer hanging up, or our own side closing
// the socket (drain, Shutdown) — as opposed to a transport fault.
func closedByPeer(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// finishRead classifies the read-loop error that ended the
// connection: clean closes log as disconnects, anything else counts
// and logs as a transport fault.
func (cs *connServer) finishRead(err error) {
	if closedByPeer(err) {
		cs.logEvent("wire: connection closed")
		return
	}
	if cs.metrics != nil {
		cs.metrics.faults.Inc()
	}
	if cs.log != nil {
		cs.log.Warn("wire: transport fault",
			"remote", cs.conn.RemoteAddr().String(), "err", err.Error())
	}
}

// hello negotiates the connection, reporting whether it may carry
// requests. The first frame must be a hello offering version 2 or
// later. A peer that opens with a request (protocol v1 had no hello),
// or offers less, gets one typed error frame and the close.
func (cs *connServer) hello() bool {
	first, err := readFrame(cs.br, helloLimit)
	var theirMax uint64
	switch {
	case errors.Is(err, ErrFrameTooBig):
		err = fmt.Errorf("%w: the first frame must be a hello", ErrProtoVersion)
	case err != nil:
		cs.finishRead(err)
		return false
	case first.Type != msgHello:
		err = fmt.Errorf("%w: the first frame must be a hello, not type %#x", ErrProtoVersion, first.Type)
	default:
		var version uint64
		version, theirMax, err = decodeHello(first.Body)
		if err == nil && version < protoV2 {
			err = fmt.Errorf("%w: peer offers version %d", ErrProtoVersion, version)
		}
	}
	first.release() // decoded by value; the lease ends here
	if err != nil {
		cs.answer(first.ID, errFrame(err)) //nolint:errcheck // closing either way
		return false
	}
	cs.maxFrame = min(cs.maxFrame, theirMax)
	if cs.answer(first.ID, helloFrame(protoV2, cs.maxFrame)) != nil {
		return false
	}
	cs.negotiated.Store(true)
	cs.logEvent("wire: hello negotiated", "version", protoV2, "max_frame", cs.maxFrame)
	return true
}

// serve negotiates and runs the connection until it drops. handle is
// the protocol logic; it must be safe for concurrent use.
//
// The loop is leader/follower: connWorkers goroutines take turns
// holding the read token. The holder reads the socket and serves
// msgCancel and msgPing in line; on a request it registers the
// request's cancel func, passes the token on, and then runs the
// handler and writes the reply itself — no queue and no
// hand-off between reading a request and answering it, and yet some
// goroutine is on the socket while a handler runs, so a msgCancel for a
// request mid-handler is read and fires its context. Requests overlap
// and replies carry the request ID, so they may complete out of order.
// With every goroutine inside a handler nobody holds the token: the
// next frame, a cancel included, waits in the TCP buffer until one
// returns. (The client does not depend on a cancel's delivery — it
// discards the late reply by ID either way.)
func (cs *connServer) serve(handle handlerFunc) {
	if !cs.hello() {
		return
	}
	connCtx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()

	var (
		imu      sync.Mutex
		inflight = map[uint32]context.CancelFunc{}
		token    = make(chan struct{}, 1)
		over     = make(chan struct{}) // closed by the last token holder
		wg       sync.WaitGroup
	)
	// next reads up to the next request and registers it.
	next := func() (frame, context.Context, context.CancelFunc, bool) {
		for {
			req, err := readFrame(cs.br, cs.maxFrame)
			if err != nil {
				cs.finishRead(err)
				return frame{}, nil, nil, false
			}
			switch req.Type {
			case msgCancel:
				imu.Lock()
				cancel := inflight[req.ID]
				imu.Unlock()
				if cancel != nil {
					cancel()
				}
				// Cancels get no reply; the request itself answers.
			case msgPing:
				// Liveness probe: answered before any handler state — no
				// login, no slot among the in-flight requests.
				if err := cs.write(frame{Type: msgOK, ID: req.ID}); err != nil {
					return frame{}, nil, nil, false
				}
			default:
				ctx, cancel := context.WithCancel(connCtx)
				imu.Lock()
				_, dup := inflight[req.ID]
				if !dup {
					inflight[req.ID] = cancel
				}
				imu.Unlock()
				if dup {
					// A conforming client never reuses an in-flight ID.
					// Letting it through would leave one request
					// uncancellable and pair two replies with one ID at
					// the peer — and any reply we send now would carry
					// the live ID and poison the original call. A
					// protocol violation this deep has no in-band
					// answer: drop the connection, now, with the
					// original still in its handler.
					cancel()
					req.release()
					cs.conn.Close()
					return frame{}, nil, nil, false
				}
				return req, ctx, cancel, true
			}
			req.release()
		}
	}
	token <- struct{}{}
	for i := 0; i < connWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-token:
				case <-over:
					return
				}
				req, ctx, cancel, ok := next()
				if !ok {
					// The connection is finished. The token stops here, so
					// nobody reads again; the others go home once their
					// handlers have answered (or failed to).
					close(over)
					return
				}
				cs.countRequest()
				cs.inflightN.Add(1)
				token <- struct{}{}
				resp := handle(ctx, req, cs.maxFrame)
				imu.Lock()
				delete(inflight, req.ID)
				imu.Unlock()
				cancel()
				// This goroutine owns both leases: the reply body is on
				// the wire once answer returns, and the handler consumed
				// the request body (every mutating path copies
				// synchronously).
				if err := cs.answer(req.ID, resp); err != nil {
					// The socket is gone: cancel everything and close the
					// conn so whoever is reading it exits too.
					cancelAll()
					cs.conn.Close()
				}
				req.release()
				cs.inflightN.Add(-1)
			}
		}()
	}
	wg.Wait()
}

// answer stamps the request's ID on a reply, writes it and ends its
// lease.
func (cs *connServer) answer(id uint32, f frame) error {
	f.ID = id
	err := cs.write(f)
	f.release()
	return err
}

// write sends one frame under the writer lock.
func (cs *connServer) write(f frame) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return writeFrame(cs.conn, f)
}

// drain gracefully winds the connection down: the peer is told to take
// its next call elsewhere (msgGoaway), in-flight requests finish and
// their replies are written, then the connection closes. ctx bounds
// the wait — on expiry the connection closes with requests still in
// flight, which is exactly the abrupt-close behavior a non-draining
// shutdown always had.
func (cs *connServer) drain(ctx context.Context) {
	cs.logEvent("wire: draining connection", "inflight", cs.inflightN.Load())
	if cs.negotiated.Load() {
		// Best effort: a peer that already hung up just fails the
		// write, and the close below is a no-op on a dead socket.
		cs.write(frame{Type: msgGoaway}) //nolint:errcheck
		if cs.metrics != nil {
			cs.metrics.goaways.Inc()
		}
		cs.logEvent("wire: goaway sent")
	}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for cs.inflightN.Load() != 0 {
		select {
		case <-ctx.Done():
			cs.conn.Close()
			return
		case <-t.C:
		}
	}
	cs.conn.Close()
}
