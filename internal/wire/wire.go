// Package wire implements the system model of §3.2 over TCP: users
// talk to a trusted agent through a private channel, and the agent
// talks to the shared raw storage over a channel an attacker can
// observe.
//
// Two servers are provided:
//
//   - StorageServer exposes a block device (the raw storage). Its
//     protocol carries only block indices and ciphertext, a batch per
//     message (a block range or an index set; a single block is an
//     index set of one), and an optional tap publishes every request
//     to a Tracer — the wire-level traffic-analysis attacker's view.
//   - AgentServer exposes volatile agents (Construction 2) to
//     clients: login (naming one of the served volumes), disclose,
//     create, read, write, logout. In a real deployment this channel
//     would be TLS; the protocol layer is orthogonal to the
//     constructions being reproduced.
//
// Both are one transport core — listener, accept loop, live-connection
// table, graceful drain — around their protocol handler, and each is
// built over a listener it then owns. A client (RemoteDevice, Client)
// holds one connection chosen at dial time: direct, where a transport
// fault latches ErrConnBroken, or self-healing (Dial*Retry), which
// redials and replays. Client has one method per agent message, each
// taking the call's context.
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

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
)

// --- storage server ----------------------------------------------------

// StorageServer exposes a block device over TCP.
type StorageServer struct {
	server
	dev blockdev.Device // wrapped in blockdev.Traced when tapped
}

// NewStorageServer serves dev on ln, which the server owns from here
// on. tap, the wire attacker's observation, may be nil; it sees exactly
// what blockdev.Traced records of the served device's successful I/O.
func NewStorageServer(ln net.Listener, dev blockdev.Device, tap blockdev.Tracer) *StorageServer {
	return newStorageServer(ln, dev, tap, maxBodySize)
}

// newStorageServer is NewStorageServer offering the frame limit
// maxFrame at the hello.
func newStorageServer(ln net.Listener, dev blockdev.Device, tap blockdev.Tracer, maxFrame uint64) *StorageServer {
	if tap != nil {
		dev = blockdev.NewTraced(dev, tap)
	}
	s := &StorageServer{dev: dev}
	s.start(ln, maxFrame, ServeOptions{}, func(cs *connServer) { cs.serve(s.handle) })
	return s
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
	case msgReadBlocks, msgWriteBlocks, msgReadBlocksAt, msgWriteBlocksAt:
		return s.batch(req, limit)
	default:
		return errFrame(fmt.Errorf("wire: unknown message type %#x", req.Type))
	}
}

// batch serves the four batch messages. A range form carries (start,
// count), an index form the index set; a write carries count blocks
// behind. The count is bounded so a read reply stays under the
// connection's negotiated frame limit, and the block buffers are views
// of the request body (write) or of the leased reply body (read).
func (s *StorageServer) batch(req frame, limit uint64) frame {
	at, write := batchForm(req.Type)
	d := &decoder{b: req.Body}
	var start, count uint64
	var idx []uint64
	if at {
		idx = decodeIndices(d)
		count = uint64(len(idx))
	} else {
		start, count = d.u64(), d.u64()
	}
	if d.err != nil {
		return errFrame(d.err)
	}
	bs := s.dev.BlockSize()
	if count == 0 || count > limit/uint64(bs) {
		return errFrame(fmt.Errorf("wire: batch of %d blocks out of bounds", count))
	}
	reply, body := frame{Type: msgOK}, d.b
	if !write {
		reply = framed(msgOK, mempool.Get(headerSize+int(count)*bs), int(count)*bs)
		body = reply.Body
	} else if uint64(len(body)) != count*uint64(bs) {
		return errFrame(fmt.Errorf("wire: batch body %d bytes, want %d", len(body), count*uint64(bs)))
	}
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = body[i*bs : (i+1)*bs]
	}
	var err error
	switch {
	case at && write:
		err = s.dev.WriteBlocksAt(idx, bufs)
	case at:
		err = s.dev.ReadBlocksAt(idx, bufs)
	case write:
		err = s.dev.WriteBlocks(start, bufs)
	default:
		err = s.dev.ReadBlocks(start, bufs)
	}
	if err != nil {
		reply.release()
		return errFrame(err)
	}
	return reply
}

// batchForm reports which of the four batch messages typ is: an index
// set (at) or a range, a write or a read.
func batchForm(typ uint32) (at, write bool) {
	return typ == msgReadBlocksAt || typ == msgWriteBlocksAt, typ == msgWriteBlocks || typ == msgWriteBlocksAt
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
// A device dialed with DialStorageRetry self-heals: batch reads retry
// transparently across reconnects; batch writes retry only when the
// fault provably preceded the request's first byte on the wire, and
// otherwise fail with ErrMaybeApplied (the write may have landed — the
// caller must re-read to reconcile).
type RemoteDevice struct {
	link // fixed at dial: direct or self-healing

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
	d := &RemoteDevice{link: m}
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
	rd := newRedialer(policy, d.onConnect, addrs)
	if err := rd.dial(ctx); err != nil {
		return nil, err
	}
	d.link = rd
	return d, nil
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

// BlockSize implements blockdev.Device.
func (d *RemoteDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements blockdev.Device.
func (d *RemoteDevice) NumBlocks() uint64 { return d.numBlocks }

// Close implements blockdev.Device. Idempotent and safe to call
// concurrently with in-flight calls, which fail cleanly.
func (d *RemoteDevice) Close() error { return d.close() }

// ReadBlocks implements blockdev.Device: each chunk of the range costs
// one round trip.
func (d *RemoteDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	return d.batch(msgReadBlocks, start, nil, bufs)
}

// WriteBlocks implements blockdev.Device.
func (d *RemoteDevice) WriteBlocks(start uint64, data [][]byte) error {
	return d.batch(msgWriteBlocks, start, nil, data)
}

// ReadBlocksAt implements blockdev.Device.
func (d *RemoteDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return d.batch(msgReadBlocksAt, 0, idx, bufs)
}

// WriteBlocksAt implements blockdev.Device.
func (d *RemoteDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return d.batch(msgWriteBlocksAt, 0, idx, data)
}

// maxBatch is how many blocks fit one frame with headroom for the
// index/count fields, under the negotiated frame limit.
func (d *RemoteDevice) maxBatch() int {
	limit := d.frameLimit
	return max(1, int((limit-min(limit/2, 4096))/uint64(d.blockSize+8)))
}

// batch sends bufs as batch messages of type typ, one round trip per
// maxBatch blocks, after checking them against the device geometry. A
// range form starts at start; an index form names its blocks in idx.
func (d *RemoteDevice) batch(typ uint32, start uint64, idx []uint64, bufs [][]byte) error {
	at, write := batchForm(typ)
	if at && len(idx) != len(bufs) {
		return fmt.Errorf("%w: %d != %d", blockdev.ErrBatchShape, len(idx), len(bufs))
	}
	bs := d.blockSize
	for _, b := range bufs {
		if len(b) != bs {
			return fmt.Errorf("%w: %d != %d", blockdev.ErrBufSize, len(b), bs)
		}
	}
	chunk := d.maxBatch()
	for off := 0; off < len(bufs); off += chunk {
		part := bufs[off:min(off+chunk, len(bufs))]
		n := len(part)
		size := 16 // start, count
		if at {
			size = 8 + 8*n // count, indices
		}
		if write {
			size += n * bs
		}
		e := newEncoder(size)
		if at {
			e.u64(uint64(n))
			for _, i := range idx[off : off+n] {
				e.u64(i)
			}
		} else {
			e.u64(start + uint64(off)).u64(uint64(n))
		}
		if write {
			for _, b := range part {
				e.put(b)
			}
		}
		resp, err := d.do(context.Background(), e.frame(typ), !write)
		if err != nil {
			return err
		}
		switch {
		case write:
		case len(resp.Body) != n*bs:
			err = fmt.Errorf("wire: batch reply %d bytes, want %d", len(resp.Body), n*bs)
		default:
			for i, b := range part {
				copy(b, resp.Body[i*bs:])
			}
		}
		resp.release() // the copy-out was the body's last read
		if err != nil {
			return err
		}
	}
	return nil
}
