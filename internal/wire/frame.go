package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"steghide/internal/mempool"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// Message types.
const (
	// Storage protocol.
	msgReadBlock  = 0x01
	msgWriteBlock = 0x02
	msgDevInfo    = 0x03
	// Batched storage protocol: a whole block range (or index set) per
	// round trip, so remote batch cost is one network latency instead
	// of one per block.
	msgReadBlocks    = 0x04
	msgWriteBlocks   = 0x05
	msgReadBlocksAt  = 0x06
	msgWriteBlocksAt = 0x07
	// Agent protocol.
	msgLogin       = 0x10
	msgLogout      = 0x11
	msgCreate      = 0x12
	msgCreateDummy = 0x13
	msgDisclose    = 0x14
	msgRead        = 0x15
	msgWrite       = 0x16
	msgSave        = 0x17
	msgDelete      = 0x18
	msgList        = 0x19
	msgTruncate    = 0x1A
	// Protocol v2 control plane. A v1 peer answers msgHello with
	// msgErr ("unknown message type"), which is exactly the fallback
	// signal the v2 dialer keys on; msgCancel names the request to
	// abandon in its header ID and carries no body.
	msgHello  = 0x40
	msgCancel = 0x41
	// Self-healing control plane. msgPing is a liveness probe answered
	// with msgOK before any login — load balancers and fleet routers
	// health-check a daemon without credentials. msgGoaway is sent by a
	// draining server (Shutdown) to v2 clients: in-flight requests will
	// still be answered, but the next call should go to a fresh
	// connection (a redial-enabled client dials its next address).
	// Both are unknown to genuine pre-v2 peers, which answer msgErr in
	// frame sync — exactly the degradation the callers handle.
	msgPing   = 0x42
	msgGoaway = 0x43
	// Replies.
	msgOK  = 0x70
	msgErr = 0x7F
)

// Protocol versions negotiated by the hello frame.
const (
	protoV1 = 1 // lock-step: one in-flight call per connection
	protoV2 = 2 // multiplexed: IDs pair replies, calls pipeline
)

// Error codes carried in msgErr bodies so the sentinel errors of the
// file layer survive the wire: errors.Is against ErrNotFound,
// ErrVolumeFull, ErrNoDummySpace and friends works on a remote client
// exactly as it does against a local agent, instead of every remote
// failure collapsing to an opaque string. Code 0 is a plain error.
const (
	codeGeneric       = 0
	codeNotFound      = 1
	codeVolumeFull    = 2
	codeNoDummySpace  = 3
	codeNotDisclosed  = 4
	codeUnknownUser   = 5
	codeUnknownVolume = 6
	codeCanceled      = 7
	codeUserBusy      = 8
	codeExists        = 9
)

// errCode tags err with the sentinel code the peer should rebuild.
func errCode(err error) uint64 {
	switch {
	case errors.Is(err, context.Canceled):
		return codeCanceled
	case errors.Is(err, stegfs.ErrNotFound):
		return codeNotFound
	case errors.Is(err, stegfs.ErrVolumeFull):
		return codeVolumeFull
	case errors.Is(err, steghide.ErrNoDummySpace):
		return codeNoDummySpace
	case errors.Is(err, steghide.ErrNotDisclosed):
		return codeNotDisclosed
	case errors.Is(err, steghide.ErrUnknownUser):
		return codeUnknownUser
	case errors.Is(err, ErrUnknownVolume):
		return codeUnknownVolume
	case errors.Is(err, steghide.ErrUserBusy):
		return codeUserBusy
	case errors.Is(err, steghide.ErrExists):
		return codeExists
	default:
		return codeGeneric
	}
}

// codeSentinel maps a wire code back to the sentinel it names.
func codeSentinel(code uint64) error {
	switch code {
	case codeNotFound:
		return stegfs.ErrNotFound
	case codeVolumeFull:
		return stegfs.ErrVolumeFull
	case codeNoDummySpace:
		return steghide.ErrNoDummySpace
	case codeNotDisclosed:
		return steghide.ErrNotDisclosed
	case codeUnknownUser:
		return steghide.ErrUnknownUser
	case codeUnknownVolume:
		return ErrUnknownVolume
	case codeUserBusy:
		return steghide.ErrUserBusy
	case codeExists:
		return steghide.ErrExists
	case codeCanceled:
		// A server-side cancellation (this request's msgCancel landed
		// mid-handler) reports as the context error the caller expects.
		return context.Canceled
	default:
		return nil
	}
}

// remoteError is a peer-reported failure. It unwraps to ErrRemote
// and, when the peer tagged a sentinel code, to that sentinel too.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return "wire: remote error: " + e.msg }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{ErrRemote, e.sentinel}
}

// decodeRemoteError rebuilds a peer's msgErr body: code plus message.
func decodeRemoteError(body []byte) error {
	d := &decoder{b: body}
	code := d.u64()
	msg := d.str()
	if d.err != nil {
		// A malformed error body still reports as a remote failure.
		return fmt.Errorf("%w: %s", ErrRemote, body)
	}
	return &remoteError{sentinel: codeSentinel(code), msg: msg}
}

const (
	headerSize = 16
	// maxBodySize is the protocol's hard ceiling on a frame body and
	// the pre-negotiation limit (v1 peers never negotiate a smaller
	// one). The hello exchange lowers it per connection.
	maxBodySize = 64 << 20
)

// ErrRemote carries an error string returned by the peer.
var ErrRemote = errors.New("wire: remote error")

// ErrUnknownVolume reports a login naming a volume the agent server
// does not serve.
var ErrUnknownVolume = errors.New("wire: unknown volume")

// ErrFrameTooBig reports a frame whose declared body length exceeds
// the connection's (negotiated) limit. The frame is never allocated
// or read; the connection is out of sync and must be dropped.
var ErrFrameTooBig = errors.New("wire: frame exceeds size limit")

// frame is one protocol message. ID pairs a reply with its request:
// protocol v1 peers leave it zero (the field occupies what v1 framed
// as padding, so the layouts are wire-compatible), v2 clients assign
// unique IDs to in-flight calls and the server echoes them.
//
// pooled marks a Body leased from the memory plane. Ownership follows
// the frame: whoever consumes the body last (copies it out, finishes
// decoding it, or discards the frame) calls release. Frames are copied
// by value through channels, so exactly one copy may release — the
// discipline at each hand-off is documented at the hand-off.
type frame struct {
	Type   uint32
	ID     uint32
	Body   []byte
	pooled bool
}

// release returns a leased body to the memory plane. Safe on frames
// with foreign or nil bodies (no-op), and idempotent on the same copy
// of the frame — but never call it on two copies of one frame.
func (f *frame) release() {
	if f.pooled && f.Body != nil {
		mempool.Recycle(f.Body)
	}
	f.Body, f.pooled = nil, false
}

func writeFrame(w io.Writer, f frame) error {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], f.Type)
	binary.BigEndian.PutUint32(hdr[4:], f.ID)
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(f.Body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if len(f.Body) > 0 {
		if _, err := w.Write(f.Body); err != nil {
			return fmt.Errorf("wire: write body: %w", err)
		}
	}
	return nil
}

// readFrame reads one frame, rejecting bodies over limit before any
// allocation happens — a hostile peer cannot force a huge allocation
// by declaring a huge length. The body is leased from the memory
// plane; the frame's consumer releases it.
func readFrame(r io.Reader, limit uint64) (frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint64(hdr[8:])
	if n > limit {
		return frame{}, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooBig, n, limit)
	}
	f := frame{
		Type: binary.BigEndian.Uint32(hdr[0:]),
		ID:   binary.BigEndian.Uint32(hdr[4:]),
	}
	if n > 0 {
		f.Body, f.pooled = mempool.Get(int(n)), true
		if _, err := io.ReadFull(r, f.Body); err != nil {
			f.release()
			return frame{}, fmt.Errorf("wire: read body: %w", err)
		}
	}
	return f, nil
}

// helloBody encodes the version/limit offer (or answer).
func helloBody(version, maxFrame uint64) []byte {
	e := &encoder{}
	e.u64(version).u64(maxFrame)
	return e.b
}

// decodeHello parses a hello body.
func decodeHello(body []byte) (version, maxFrame uint64, err error) {
	d := &decoder{b: body}
	version = d.u64()
	maxFrame = d.u64()
	if d.err != nil {
		return 0, 0, d.err
	}
	if version < protoV1 || maxFrame == 0 {
		return 0, 0, fmt.Errorf("wire: malformed hello (version %d, limit %d)", version, maxFrame)
	}
	return version, maxFrame, nil
}

// encoder builds binary bodies.
type encoder struct{ b []byte }

func (e *encoder) u64(v uint64) *encoder {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	e.b = append(e.b, tmp[:]...)
	return e
}

func (e *encoder) str(s string) *encoder {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
	return e
}

func (e *encoder) bytes(p []byte) *encoder {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
	return e
}

// decoder parses binary bodies. Every accessor checks the remaining
// length before touching it, so truncated and hostile bodies error
// out instead of panicking; raw/str return views into the body, so a
// lying length prefix cannot drive an allocation either.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("wire: truncated body")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string { return string(d.raw()) }

func (d *decoder) raw() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("wire: truncated body")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// errFrame wraps err as a msgErr reply (the ID is stamped on send).
func errFrame(err error) frame {
	e := &encoder{}
	e.u64(errCode(err))
	e.str(err.Error())
	return frame{Type: msgErr, Body: e.b}
}
