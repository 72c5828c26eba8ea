package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConnBroken reports a client connection lost to a transport
// fault; every further call fails until the caller redials. A
// cancelled call is not one: it abandons only its own request ID — the
// demux reader discards the late reply by ID — so the connection stays
// healthy.
var ErrConnBroken = errors.New("wire: connection broken; redial")

// errConnClosed reports calls after a local Close.
var errConnClosed = errors.New("wire: connection closed")

// muxConn is one client connection to a wire server. Every call gets a
// request ID and a reply channel; the calling goroutine writes its own
// frame while it holds the socket's write side, and the demux reader
// routes replies to their channels by ID, so any number of calls from
// any goroutines are concurrently in flight on one connection. Context
// cancellation abandons just that request.
type muxConn struct {
	conn     net.Conn
	maxFrame uint64 // negotiated body limit

	// goaway is set when the server announced a drain (msgGoaway): the
	// connection still answers its in-flight requests, but a
	// redial-capable caller should place its next call elsewhere.
	goaway atomic.Bool

	// wlock is the socket's write side as a one-slot token, held for
	// exactly one writeFrame. A channel and not a mutex, so that waiting
	// for it sits in one select with the caller's context and the
	// connection's end.
	wlock    chan struct{}
	quit     chan struct{} // closed by close
	dead     chan struct{} // closed on the first transport fault
	deadOnce sync.Once
	quitOnce sync.Once

	mu      sync.Mutex
	err     error // first transport fault, wrapped in ErrConnBroken
	pending map[uint32]chan frame
	nextID  uint32
}

// dialMux connects to addr and runs the hello handshake.
func dialMux(ctx context.Context, addr string, proposeMax uint64) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	m, err := newMux(ctx, conn, proposeMax)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return m, nil
}

// newMux runs the handshake on an established connection: it offers
// protocol v2 and a frame limit, and the peer must answer with both.
// A peer that rejects the hello, or answers with an older version,
// fails the dial with ErrProtoVersion.
func newMux(ctx context.Context, conn net.Conn, proposeMax uint64) (*muxConn, error) {
	if proposeMax == 0 || proposeMax > maxBodySize {
		proposeMax = maxBodySize
	}
	// One reader for the connection's whole life, the hello included, so
	// no byte the peer sends behind its hello falls between two readers.
	br := bufio.NewReaderSize(conn, connReadBuf)
	// The hello is one round trip before any goroutine exists, bounded
	// by the dial context: its firing expires the socket's deadlines.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) }) //nolint:errcheck // best-effort interrupt
	hello := helloFrame(protoV2, proposeMax)
	err := writeFrame(conn, hello)
	hello.release()
	var resp frame
	if err == nil {
		resp, err = readFrame(br, helloLimit)
	}
	defer resp.release() // every field below is decoded by value
	if !stop() {
		return nil, fmt.Errorf("wire: %w", ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	switch resp.Type {
	case msgHello:
		version, theirMax, err := decodeHello(resp.Body)
		if err != nil {
			return nil, err
		}
		if version < protoV2 {
			return nil, fmt.Errorf("%w: peer answers version %d", ErrProtoVersion, version)
		}
		m := &muxConn{
			conn:     conn,
			maxFrame: min(proposeMax, theirMax),
			wlock:    make(chan struct{}, 1),
			quit:     make(chan struct{}),
			dead:     make(chan struct{}),
			pending:  map[uint32]chan frame{},
		}
		go m.readLoop(br)
		return m, nil
	case msgErr:
		// A peer from before the hello frame ("unknown message type"), or
		// one that refuses version 2.
		return nil, fmt.Errorf("%w: %w", ErrProtoVersion, decodeRemoteError(resp.Body))
	default:
		return nil, fmt.Errorf("wire: unexpected hello reply type %#x", resp.Type)
	}
}

// call runs one request/reply exchange, pipelined with every other
// in-flight call, and ends the request's lease: the body was this
// goroutine's from encode until its own Write returned, which on every
// path out of callT it has (or never began). ctx cancellation abandons
// only this request (a best-effort msgCancel tells the server to stop
// working on it) and the connection stays usable.
func (m *muxConn) call(ctx context.Context, req frame) (frame, error) {
	defer req.release()
	resp, _, err := m.callT(ctx, req)
	return resp, err
}

// link is a client's one connection to its server, chosen at dial
// time: a *muxConn (direct — a transport fault latches ErrConnBroken,
// a goaway is not followed) or a *Redialer (self-healing). do runs one
// exchange and ends the request's lease; idempotent marks a request
// the retry layer may re-send even if the server already executed it.
type link interface {
	do(ctx context.Context, req frame, idempotent bool) (frame, error)
	close() error
}

// do is call: a direct connection never re-sends, so idempotence does
// not matter to it.
func (m *muxConn) do(ctx context.Context, req frame, _ bool) (frame, error) {
	return m.call(ctx, req)
}

// callT is call with send tracking for the retry layer, and without
// the release (a retry sends the same frame again). sent reports
// whether this goroutine began writing the request: on failure,
// sent=false proves no byte of it ever hit the wire, so even a
// mutating request is safe to resend; sent=true means it may have
// reached (and been applied by) the server. On success sent is always
// true.
func (m *muxConn) callT(ctx context.Context, req frame) (resp frame, sent bool, err error) {
	if uint64(len(req.Body)) > m.maxFrame {
		// Refuse before anything hits the wire: the peer would reject
		// the frame unread and drop the connection, killing every
		// other in-flight call for one oversized request.
		return frame{}, false, fmt.Errorf("%w: request of %d bytes (limit %d)", ErrFrameTooBig, len(req.Body), m.maxFrame)
	}
	if err := ctx.Err(); err != nil {
		return frame{}, false, fmt.Errorf("wire: %w", err)
	}
	ch := make(chan frame, 1)
	id, err := m.register(ch)
	if err != nil {
		return frame{}, false, err
	}
	req.ID = id
	if err := m.lockWrite(ctx); err != nil {
		m.unregister(id)
		return frame{}, false, err
	}
	err = writeFrame(m.conn, req)
	<-m.wlock
	if err != nil {
		m.unregister(id)
		m.fail(err)
		return frame{}, true, m.brokenErr()
	}
	select {
	case resp := <-ch:
		return decodeReply(resp)
	case <-ctx.Done():
		// Abandon this request only: drop the pending entry (the
		// demux reader discards the late reply by ID) and tell the
		// server, best effort, to stop working on it. If the entry is
		// already gone the reply raced the cancellation and won; the
		// exchange completed intact, but the operation still reports
		// the cancellation.
		if m.unregister(id) {
			m.sendCancel(id)
		}
		return frame{}, true, fmt.Errorf("wire: %w", ctx.Err())
	case <-m.dead:
		// The reader may have delivered the reply just before dying.
		select {
		case resp := <-ch:
			return decodeReply(resp)
		default:
		}
		m.unregister(id)
		return frame{}, true, m.brokenErr()
	case <-m.quit:
		m.unregister(id)
		return frame{}, true, errConnClosed
	}
}

// decodeReply turns a delivered reply into callT's results; the waiting
// caller owns its lease from here.
func decodeReply(resp frame) (frame, bool, error) {
	if resp.Type == msgErr {
		err := decodeRemoteError(resp.Body)
		resp.release() // decodeRemoteError copied what it kept
		return frame{}, true, err
	}
	return resp, true, nil
}

// lockWrite takes the socket's write side, or gives up with the reason
// the caller should stop waiting for it: its context, a transport
// fault, a local close. An error proves the caller wrote nothing.
func (m *muxConn) lockWrite(ctx context.Context) error {
	held := false
	select {
	case m.wlock <- struct{}{}:
		held = true
	case <-ctx.Done():
	case <-m.dead:
	case <-m.quit:
	}
	// Several cases can be ready at once and select picks among them at
	// random, so look again whichever fired: a connection already gone,
	// or a context already done, is never written to.
	var err error
	select {
	case <-ctx.Done():
		err = fmt.Errorf("wire: %w", ctx.Err())
	case <-m.dead:
		err = m.brokenErr()
	case <-m.quit:
		err = errConnClosed
	default:
		return nil // none of the three un-fires, so the token it was
	}
	if held {
		<-m.wlock
	}
	return err
}

// sendCancel tells the server to stop working on request id — only if
// the socket's write side is free this instant. Whoever holds it may
// be held up by the very backpressure the cancelled request is part
// of, and nothing depends on delivery: the late reply is discarded by
// ID whether the server heard or not.
func (m *muxConn) sendCancel(id uint32) {
	select {
	case m.wlock <- struct{}{}:
		err := writeFrame(m.conn, frame{Type: msgCancel, ID: id})
		<-m.wlock
		if err != nil {
			m.fail(err)
		}
	default:
	}
}

// register allocates a request ID and parks its reply channel.
func (m *muxConn) register(ch chan frame) (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConnBroken, m.err)
	}
	for {
		m.nextID++
		if m.nextID == 0 { // 0 is what a pre-hello peer sends; never assign it
			m.nextID = 1
		}
		if _, busy := m.pending[m.nextID]; !busy {
			break
		}
	}
	id := m.nextID
	m.pending[id] = ch
	return id, nil
}

// unregister forgets a pending request, reporting whether it was
// still pending (false: the reader already delivered its reply).
func (m *muxConn) unregister(id uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, was := m.pending[id]
	delete(m.pending, id)
	return was
}

// readLoop is the demux reader, the only reader of the socket: it
// routes every reply to the pending channel its ID names. A reply
// whose ID is unknown belongs to a cancelled (abandoned) request and is
// discarded — this is what keeps a cancelled call from desyncing the
// stream. It is also what notices a drain announcement or a dead peer
// on a connection with no call in flight.
func (m *muxConn) readLoop(br *bufio.Reader) {
	for {
		f, err := readFrame(br, m.maxFrame)
		if err != nil {
			m.fail(err)
			return
		}
		if f.Type == msgGoaway {
			// Drain announcement: in-flight replies still arrive, but a
			// redial-capable caller should place its next call on a
			// fresh connection.
			m.goaway.Store(true)
			f.release()
			continue
		}
		m.mu.Lock()
		ch := m.pending[f.ID]
		delete(m.pending, f.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- f // the waiting caller owns the lease now
		} else {
			// A cancelled (abandoned) request's late reply: discard it
			// and return its lease — nobody will ever read it.
			f.release()
		}
	}
}

// fail latches the first transport fault and wakes every waiter.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.deadOnce.Do(func() { close(m.dead) })
	m.conn.Close() // unblock the reader and any caller mid-Write
}

// brokenErr reports the latched transport fault. A fault caused by
// the local Close reports as a plain close, not a broken connection.
func (m *muxConn) brokenErr() error {
	select {
	case <-m.quit:
		return errConnClosed
	default:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrConnBroken, m.err)
}

// healthy reports whether the connection can still carry calls: no
// transport fault latched, not locally closed, and the server has not
// announced a drain. Lock-free — safe from any goroutine, including
// while calls are in flight.
func (m *muxConn) healthy() bool {
	select {
	case <-m.dead:
		return false
	case <-m.quit:
		return false
	default:
		return !m.goaway.Load()
	}
}

// draining reports whether the server announced a drain (msgGoaway).
func (m *muxConn) draining() bool { return m.goaway.Load() }

// close tears the connection down; the reader exits on the socket
// close and waiting callers on the quit channel. Idempotent and safe
// to call concurrently with in-flight calls: the socket closes exactly
// once and later calls observe the quit latch.
func (m *muxConn) close() error {
	var err error
	m.quitOnce.Do(func() {
		close(m.quit)
		err = m.conn.Close()
	})
	return err
}
