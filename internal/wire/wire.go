// Package wire implements the system model of §3.2 over TCP: users
// talk to a trusted agent through a private channel, and the agent
// talks to the shared raw storage over a channel an attacker can
// observe.
//
// Two servers are provided:
//
//   - StorageServer exposes a block device (the raw storage). Its
//     protocol carries only block indices and ciphertext, and an
//     optional tap publishes every request to a Tracer — the
//     wire-level traffic-analysis attacker's view.
//   - AgentServer exposes volatile agents (Construction 2) to
//     clients: login (naming one of the served volumes), disclose,
//     create, read, write, logout. In a real deployment this channel
//     would be TLS; the protocol layer is orthogonal to the
//     constructions being reproduced.
//
// The framing is a fixed 16-byte header (type, request ID, length)
// followed by a binary body, all big-endian, and every frame is one
// Write. The protocol multiplexes: every frame carries a request ID,
// clients keep any number of calls in flight on one connection,
// servers work a bounded number of them at once and reply out of
// order, and msgCancel abandons one request without touching the rest.
// The first frame in each direction is a hello that negotiates the
// version and the maximum frame size; a peer without one (protocol v1,
// lock-step) is refused with ErrProtoVersion.
package wire

import (
	"context"
	"fmt"
	"net"
	"sync"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
)

// --- storage server ----------------------------------------------------

// StorageServer exposes a block device over TCP.
type StorageServer struct {
	dev blockdev.Device // wrapped in blockdev.Traced when tapped
	ln  net.Listener
	wg  sync.WaitGroup

	maxFrame uint64

	// Graceful-drain state: live connections, and whether Shutdown has
	// begun (after which new connections are refused).
	cmu   sync.Mutex
	conns map[*connServer]struct{}
	down  bool
}

// NewStorageServer starts serving dev on addr (e.g. "127.0.0.1:0").
// tap, the wire attacker's observation, may be nil; it sees exactly
// what blockdev.Traced records of the served device's successful I/O.
func NewStorageServer(addr string, dev blockdev.Device, tap blockdev.Tracer) (*StorageServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return newStorageServer(ln, dev, tap, maxBodySize), nil
}

// NewStorageServerListener is NewStorageServer over an already
// established listener — the injection point for fault-injecting
// transports (the chaos harness) and custom routing. The server owns
// ln from here on.
func NewStorageServerListener(ln net.Listener, dev blockdev.Device, tap blockdev.Tracer) (*StorageServer, error) {
	return newStorageServer(ln, dev, tap, maxBodySize), nil
}

// newStorageServer is the core; the frame limit it offers must be
// fixed before the accept loop can hand a connection to it.
func newStorageServer(ln net.Listener, dev blockdev.Device, tap blockdev.Tracer, maxFrame uint64) *StorageServer {
	if tap != nil {
		dev = blockdev.NewTraced(dev, tap)
	}
	s := &StorageServer{dev: dev, ln: ln, maxFrame: maxFrame, conns: map[*connServer]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *StorageServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connections to drain.
func (s *StorageServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: stop accepting, goaway every
// connection, let in-flight requests reply, then close. See
// AgentServer.Shutdown for the full contract.
func (s *StorageServer) Shutdown(ctx context.Context) error {
	s.cmu.Lock()
	s.down = true
	conns := make([]*connServer, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.cmu.Unlock()
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
	return ctx.Err()
}

// track registers a live connection, refusing once Shutdown began.
func (s *StorageServer) track(cs *connServer) bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.down {
		return false
	}
	s.conns[cs] = struct{}{}
	return true
}

func (s *StorageServer) untrack(cs *connServer) {
	s.cmu.Lock()
	delete(s.conns, cs)
	s.cmu.Unlock()
}

func (s *StorageServer) acceptLoop() {
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
			cs := newConnServer(conn, s.maxFrame, nil, nil)
			if !s.track(cs) {
				return // raced Shutdown: the listener is already closed
			}
			defer s.untrack(cs)
			cs.serve(s.handle)
		}()
	}
}

// handle serves one storage request, concurrently with the
// connection's other in-flight requests, so it leases its own buffers.
// limit is the connection's negotiated frame bound; batch replies must
// fit it.
func (s *StorageServer) handle(ctx context.Context, req frame, limit uint64) frame {
	if err := ctx.Err(); err != nil {
		return errFrame(fmt.Errorf("wire: %w", err))
	}
	switch req.Type {
	case msgDevInfo:
		e := &encoder{}
		return e.u64(uint64(s.dev.BlockSize())).u64(s.dev.NumBlocks()).frame(msgOK)
	case msgReadBlock:
		d := &decoder{b: req.Body}
		idx := d.u64()
		if d.err != nil {
			return errFrame(d.err)
		}
		bs := s.dev.BlockSize()
		buf := mempool.Get(headerSize + bs)
		if err := s.dev.ReadBlock(idx, buf[headerSize:]); err != nil {
			mempool.Recycle(buf)
			return errFrame(err)
		}
		return framed(msgOK, buf, bs)
	case msgWriteBlock:
		d := &decoder{b: req.Body}
		idx := d.u64()
		data := d.raw()
		if d.err != nil {
			return errFrame(d.err)
		}
		if err := s.dev.WriteBlock(idx, data); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgReadBlocks:
		d := &decoder{b: req.Body}
		start, count := d.u64(), d.u64()
		if d.err != nil {
			return errFrame(d.err)
		}
		reply, bufs, err := s.batchBufs(count, limit)
		if err != nil {
			return errFrame(err)
		}
		if err := blockdev.ReadBlocks(s.dev, start, bufs); err != nil {
			reply.release()
			return errFrame(err)
		}
		return reply
	case msgWriteBlocks:
		d := &decoder{b: req.Body}
		start, count := d.u64(), d.u64()
		data, err := s.splitBlocks(d, count, limit)
		if err != nil {
			return errFrame(err)
		}
		if err := blockdev.WriteBlocks(s.dev, start, data); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	case msgReadBlocksAt:
		d := &decoder{b: req.Body}
		idx := decodeIndices(d)
		if d.err != nil {
			return errFrame(d.err)
		}
		reply, bufs, err := s.batchBufs(uint64(len(idx)), limit)
		if err != nil {
			return errFrame(err)
		}
		if err := blockdev.ReadBlocksAt(s.dev, idx, bufs); err != nil {
			reply.release()
			return errFrame(err)
		}
		return reply
	case msgWriteBlocksAt:
		d := &decoder{b: req.Body}
		idx := decodeIndices(d)
		data, err := s.splitBlocks(d, uint64(len(idx)), limit)
		if err != nil {
			return errFrame(err)
		}
		if err := blockdev.WriteBlocksAt(s.dev, idx, data); err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	default:
		return errFrame(fmt.Errorf("wire: unknown message type %#x", req.Type))
	}
}

// batchBufs leases the reply frame of a count-block read and carves
// its body into the block buffers the device fills. The count is
// bounded so the reply stays under the connection's negotiated frame
// limit.
func (s *StorageServer) batchBufs(count, limit uint64) (frame, [][]byte, error) {
	bs := s.dev.BlockSize()
	if count == 0 || count > limit/uint64(bs) {
		return frame{}, nil, fmt.Errorf("wire: batch of %d blocks out of bounds", count)
	}
	reply := framed(msgOK, mempool.Get(headerSize+int(count)*bs), int(count)*bs)
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = reply.Body[i*bs : (i+1)*bs]
	}
	return reply, bufs, nil
}

// splitBlocks views the decoder's remaining body as count raw blocks.
func (s *StorageServer) splitBlocks(d *decoder, count, limit uint64) ([][]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	bs := s.dev.BlockSize()
	if count == 0 || count > limit/uint64(bs) {
		return nil, fmt.Errorf("wire: batch of %d blocks out of bounds", count)
	}
	if uint64(len(d.b)) != count*uint64(bs) {
		return nil, fmt.Errorf("wire: batch body %d bytes, want %d", len(d.b), count*uint64(bs))
	}
	data := make([][]byte, count)
	for i := range data {
		data[i] = d.b[i*bs : (i+1)*bs]
	}
	return data, nil
}

// decodeIndices parses a u64 count followed by that many u64 indices.
func decodeIndices(d *decoder) []uint64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n == 0 || uint64(len(d.b)) < n*8 || n > maxBodySize/8 {
		d.err = fmt.Errorf("wire: index set of %d out of bounds", n)
		return nil
	}
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = d.u64()
	}
	return idx
}

// RemoteDevice is a blockdev.Device backed by a StorageServer. It is
// safe for concurrent use: concurrent requests pipeline on the one
// connection instead of serializing — every in-flight op is an
// outstanding request ID on the mux.
//
// A device dialed with DialStorageRetry self-heals: block and batch
// reads retry transparently across reconnects; block and batch writes
// retry only when the fault provably preceded the request's first
// byte on the wire, and otherwise fail with ErrMaybeApplied (the
// write may have landed — the caller must re-read to reconcile).
type RemoteDevice struct {
	m  *muxConn  // direct mode; nil in retry mode
	rd *Redialer // retry mode; nil in direct mode

	blockSize  int
	numBlocks  uint64
	frameLimit uint64 // negotiated at first connect; batches size to it
}

// DialStorage connects to a storage server and fetches its geometry.
func DialStorage(addr string) (*RemoteDevice, error) {
	ctx := context.Background()
	m, err := dialMux(ctx, addr, maxBodySize)
	if err != nil {
		return nil, err
	}
	d := &RemoteDevice{m: m}
	if err := d.onConnect(ctx, m); err != nil {
		m.close()
		return nil, err
	}
	return d, nil
}

// DialStorageRetry connects with self-healing: transport faults
// redial (rotating through addrs) with backoff under policy's budget,
// and the geometry handshake replays on every reconnect. The initial
// dial itself retries too, so a device can be dialed while its server
// is still coming up.
func DialStorageRetry(ctx context.Context, policy RetryPolicy, addrs ...string) (*RemoteDevice, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("wire: no storage addresses")
	}
	d := &RemoteDevice{}
	rd := newRedialer(policy, maxBodySize, addrs...)
	rd.onConnect = d.onConnect
	d.rd = rd
	for attempt := 0; ; attempt++ {
		_, err := rd.acquire(ctx)
		if err == nil {
			return d, nil
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

// onConnect fetches the geometry on a fresh connection. The first
// connect fixes it (before the device escapes to any caller); every
// reconnect must present the same device — a changed geometry means
// we reached a different (or reformatted) store, where resuming block
// I/O would corrupt silently.
func (d *RemoteDevice) onConnect(ctx context.Context, m *muxConn) error {
	resp, err := m.call(ctx, frame{Type: msgDevInfo})
	if err != nil {
		return err
	}
	dec := &decoder{b: resp.Body}
	bs := int(dec.u64())
	nb := dec.u64()
	resp.release()
	if dec.err != nil {
		return dec.err
	}
	if bs <= 0 {
		return fmt.Errorf("wire: bad device geometry (block size %d)", bs)
	}
	if d.blockSize == 0 {
		d.blockSize = bs
		d.numBlocks = nb
		d.frameLimit = m.maxFrame
		return nil
	}
	if bs != d.blockSize || nb != d.numBlocks {
		return fmt.Errorf("wire: device geometry changed across reconnect (%d×%d -> %d×%d)",
			d.blockSize, d.numBlocks, bs, nb)
	}
	if m.maxFrame < d.frameLimit {
		// In-flight batch sizing assumed the original limit; a smaller
		// renegotiated frame would make those batches oversized.
		return fmt.Errorf("wire: frame limit shrank across reconnect (%d -> %d)", d.frameLimit, m.maxFrame)
	}
	return nil
}

// do routes one exchange through the retry layer when enabled; either
// way the request's lease ends with the call.
func (d *RemoteDevice) do(ctx context.Context, req frame, idempotent bool) (frame, error) {
	if d.rd != nil {
		return d.rd.call(ctx, req, idempotent)
	}
	return d.m.call(ctx, req)
}

// ProtoVersion reports the negotiated protocol version.
func (d *RemoteDevice) ProtoVersion() int { return protoV2 }

// BlockSize implements blockdev.Device.
func (d *RemoteDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements blockdev.Device.
func (d *RemoteDevice) NumBlocks() uint64 { return d.numBlocks }

// ReadBlock implements blockdev.Device.
func (d *RemoteDevice) ReadBlock(i uint64, buf []byte) error {
	if len(buf) != d.blockSize {
		return fmt.Errorf("%w: %d != %d", blockdev.ErrBufSize, len(buf), d.blockSize)
	}
	e := &encoder{}
	resp, err := d.do(context.Background(), e.u64(i).frame(msgReadBlock), true)
	if err != nil {
		return err
	}
	if len(resp.Body) != d.blockSize {
		resp.release()
		return fmt.Errorf("wire: short block read (%d bytes)", len(resp.Body))
	}
	copy(buf, resp.Body)
	resp.release()
	return nil
}

// WriteBlock implements blockdev.Device.
func (d *RemoteDevice) WriteBlock(i uint64, data []byte) error {
	if len(data) != d.blockSize {
		return fmt.Errorf("%w: %d != %d", blockdev.ErrBufSize, len(data), d.blockSize)
	}
	e := newEncoder(16 + len(data))
	_, err := d.do(context.Background(), e.u64(i).bytes(data).frame(msgWriteBlock), false)
	return err
}

// Close implements blockdev.Device. Idempotent and safe to call
// concurrently with in-flight calls, which fail cleanly.
func (d *RemoteDevice) Close() error {
	if d.rd != nil {
		return d.rd.close()
	}
	return d.m.close()
}

// maxBatch is how many blocks fit one frame with headroom for the
// index/count fields, under the negotiated frame limit.
func (d *RemoteDevice) maxBatch() int {
	limit := d.frameLimit
	n := (limit - min(limit/2, 4096)) / uint64(d.blockSize+8)
	if n < 1 {
		n = 1
	}
	return int(n)
}

// checkBufs validates a batch's buffer vector against the device
// geometry before anything hits the wire.
func (d *RemoteDevice) checkBufs(bufs [][]byte) error {
	for _, b := range bufs {
		if len(b) != d.blockSize {
			return fmt.Errorf("%w: %d != %d", blockdev.ErrBufSize, len(b), d.blockSize)
		}
	}
	return nil
}

// scatter copies a concatenated-blocks reply into the buffer vector
// and releases the reply's lease — the copy-out is the last read of
// the body on every path, including the size-mismatch error.
func (d *RemoteDevice) scatter(resp *frame, bufs [][]byte) error {
	defer resp.release()
	body := resp.Body
	if len(body) != len(bufs)*d.blockSize {
		return fmt.Errorf("wire: batch reply %d bytes, want %d", len(body), len(bufs)*d.blockSize)
	}
	for i, b := range bufs {
		copy(b, body[i*d.blockSize:])
	}
	return nil
}

// ReadBlocks implements blockdev.BatchDevice: each chunk of the range
// costs one round trip instead of one per block.
func (d *RemoteDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := d.checkBufs(bufs); err != nil {
		return err
	}
	chunk := d.maxBatch()
	for off := 0; off < len(bufs); off += chunk {
		hi := min(off+chunk, len(bufs))
		e := &encoder{}
		e.u64(start + uint64(off)).u64(uint64(hi - off))
		resp, err := d.do(context.Background(), e.frame(msgReadBlocks), true)
		if err != nil {
			return err
		}
		if err := d.scatter(&resp, bufs[off:hi]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks implements blockdev.BatchDevice.
func (d *RemoteDevice) WriteBlocks(start uint64, data [][]byte) error {
	if err := d.checkBufs(data); err != nil {
		return err
	}
	chunk := d.maxBatch()
	for off := 0; off < len(data); off += chunk {
		hi := min(off+chunk, len(data))
		e := newEncoder(16 + (hi-off)*d.blockSize)
		e.u64(start + uint64(off)).u64(uint64(hi - off))
		for _, b := range data[off:hi] {
			e.put(b)
		}
		if _, err := d.do(context.Background(), e.frame(msgWriteBlocks), false); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocksAt implements blockdev.BatchDevice.
func (d *RemoteDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if len(idx) != len(bufs) {
		return fmt.Errorf("%w: %d != %d", blockdev.ErrBatchShape, len(idx), len(bufs))
	}
	if err := d.checkBufs(bufs); err != nil {
		return err
	}
	chunk := d.maxBatch()
	for off := 0; off < len(idx); off += chunk {
		hi := min(off+chunk, len(idx))
		e := newEncoder(8 + (hi-off)*8)
		e.u64(uint64(hi - off))
		for _, i := range idx[off:hi] {
			e.u64(i)
		}
		resp, err := d.do(context.Background(), e.frame(msgReadBlocksAt), true)
		if err != nil {
			return err
		}
		if err := d.scatter(&resp, bufs[off:hi]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocksAt implements blockdev.BatchDevice.
func (d *RemoteDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if len(idx) != len(data) {
		return fmt.Errorf("%w: %d != %d", blockdev.ErrBatchShape, len(idx), len(data))
	}
	if err := d.checkBufs(data); err != nil {
		return err
	}
	chunk := d.maxBatch()
	for off := 0; off < len(idx); off += chunk {
		hi := min(off+chunk, len(idx))
		e := newEncoder(8 + (hi-off)*(d.blockSize+8))
		e.u64(uint64(hi - off))
		for _, i := range idx[off:hi] {
			e.u64(i)
		}
		for _, b := range data[off:hi] {
			e.put(b)
		}
		if _, err := d.do(context.Background(), e.frame(msgWriteBlocksAt), false); err != nil {
			return err
		}
	}
	return nil
}
