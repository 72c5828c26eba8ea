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
	// Storage protocol: the geometry, then a whole block range (or
	// index set) per round trip, so a remote batch costs one network
	// latency; a single block is an index set of one. 0x01 and 0x02
	// (one block each) are retired: an older peer meets "unknown
	// message type".
	msgDevInfo       = 0x03
	msgReadBlocks    = 0x04
	msgWriteBlocks   = 0x05
	msgReadBlocksAt  = 0x06
	msgWriteBlocksAt = 0x07
	// Agent protocol. msgWriteV carries writes, a truncate and the save;
	// 0x16, 0x17, 0x1A and 0x1B (its body without the truncate) are
	// retired: an older peer meets "unknown message type".
	msgLogin       = 0x10
	msgLogout      = 0x11
	msgCreate      = 0x12
	msgCreateDummy = 0x13
	msgDisclose    = 0x14
	msgRead        = 0x15
	msgDelete      = 0x18
	msgList        = 0x19
	msgWriteV      = 0x1C
	// Control plane. msgHello is the first frame in each direction (a
	// peer from before it answers msgErr, "unknown message type", which
	// the dialer reports as ErrProtoVersion); msgCancel names the
	// request to abandon in its header ID and carries no body.
	msgHello  = 0x40
	msgCancel = 0x41
	// Self-healing control plane. msgPing is a liveness probe answered
	// with msgOK before any login — load balancers and fleet routers
	// health-check a daemon without credentials. msgGoaway is sent by a
	// draining server (Shutdown): in-flight requests will still be
	// answered, but the next call should go to a fresh connection (a
	// redial-enabled client dials its next address).
	msgPing   = 0x42
	msgGoaway = 0x43
	// Replies.
	msgOK  = 0x70
	msgErr = 0x7F
)

// protoV2 is the one protocol version this package speaks, offered
// and required in the hello frame: IDs pair replies with requests, so
// calls pipeline. Version 1, lock-step and hello-less, is refused.
const protoV2 = 2

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
	codeProtoVersion  = 10
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
	case errors.Is(err, ErrProtoVersion):
		return codeProtoVersion
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
	case codeProtoVersion:
		return ErrProtoVersion
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
	// maxBodySize is the protocol's hard ceiling on a frame body; the
	// hello exchange lowers it per connection.
	maxBodySize = 64 << 20
	// helloLimit bounds the first frame in each direction: a hello body
	// is two u64s, with room left for a later version's fields. A peer
	// that opens with anything larger is not speaking this protocol.
	helloLimit = 256
	// connReadBuf sizes the one buffered reader each end of a
	// connection reads through: a header and a body of a block or two
	// arrive in one read, a bulk body is read straight into its frame.
	connReadBuf = 8 << 10
)

// ErrRemote carries an error string returned by the peer.
var ErrRemote = errors.New("wire: remote error")

// ErrUnknownVolume reports a login naming a volume the agent server
// does not serve.
var ErrUnknownVolume = errors.New("wire: unknown volume")

// ErrProtoVersion reports a peer that does not speak protocol v2: it
// opened without a hello, offered an older version, or rejected ours.
// The refusing side sends it as its one error frame before closing.
var ErrProtoVersion = errors.New("wire: protocol version not supported")

// ErrFrameTooBig reports a frame whose declared body length exceeds
// the connection's (negotiated) limit. The frame is never allocated
// or read; the connection is out of sync and must be dropped.
var ErrFrameTooBig = errors.New("wire: frame exceeds size limit")

// frame is one protocol message. ID pairs a reply with its request:
// clients assign unique IDs to in-flight calls and the server echoes
// them.
//
// buf is the buffer Body lives in: headerSize bytes of room, then the
// body, so writeFrame can put header and body on the socket in one
// Write. Every body this package builds (encoder, framed) or reads
// (readFrame) has it, leased from the memory plane; it is nil on a
// bare frame and on a body that came from somewhere else. Ownership
// follows the frame: whoever consumes the body last (copies it out,
// finishes decoding it, sees its Write return, or discards the frame)
// calls release. Frames are copied by value through channels, so
// exactly one copy may release — the discipline at each hand-off is
// documented at the hand-off.
type frame struct {
	Type uint32
	ID   uint32
	Body []byte
	buf  []byte
}

// framed wraps the first n body bytes of buf — a lease of at least
// headerSize+n bytes, filled from headerSize on — as a frame.
func framed(typ uint32, buf []byte, n int) frame {
	return frame{Type: typ, Body: buf[headerSize : headerSize+n], buf: buf}
}

// release returns the frame's buffer — the whole lease, never the
// Body view, whose capacity is no size class — to the memory plane.
// Safe on frames without one (no-op), and idempotent on the same copy
// of the frame — but never call it on two copies of one frame.
func (f *frame) release() {
	mempool.Recycle(f.buf)
	f.Body, f.buf = nil, nil
}

// writeFrame puts f on w in exactly one Write, header and body
// together: a 16-byte header sent on its own leaves as its own segment
// (TCP_NODELAY) and wakes the peer for nothing. The header goes into
// the room in front of the body; a frame without that room is staged
// into a leased buffer first.
func writeFrame(w io.Writer, f frame) error {
	buf := f.buf
	if buf == nil {
		buf = mempool.Get(headerSize + len(f.Body))
		copy(buf[headerSize:], f.Body)
	} else if len(f.Body) > 0 && &buf[headerSize] != &f.Body[0] {
		panic("wire: frame body is not behind its header room")
	}
	binary.BigEndian.PutUint32(buf[0:], f.Type)
	binary.BigEndian.PutUint32(buf[4:], f.ID)
	binary.BigEndian.PutUint64(buf[8:], uint64(len(f.Body)))
	_, err := w.Write(buf[:headerSize+len(f.Body)])
	if f.buf == nil {
		mempool.Recycle(buf)
	}
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// readFrame reads one frame, rejecting bodies over limit before any
// allocation happens — a hostile peer cannot force a huge allocation
// by declaring a huge length. The body is leased from the memory
// plane, behind header room like every other; the frame's consumer
// releases it.
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
		f.buf = mempool.Get(headerSize + int(n))
		f.Body = f.buf[headerSize:]
		if _, err := io.ReadFull(r, f.Body); err != nil {
			f.release()
			return frame{}, fmt.Errorf("wire: read body: %w", err)
		}
	}
	return f, nil
}

// helloFrame encodes the version/limit offer (or answer).
func helloFrame(version, maxFrame uint64) frame {
	e := &encoder{}
	return e.u64(version).u64(maxFrame).frame(msgHello)
}

// decodeHello parses a hello body.
func decodeHello(body []byte) (version, maxFrame uint64, err error) {
	d := &decoder{b: body}
	version = d.u64()
	maxFrame = d.u64()
	if d.err != nil {
		return 0, 0, d.err
	}
	if version == 0 || maxFrame == 0 {
		return 0, 0, fmt.Errorf("wire: malformed hello (version %d, limit %d)", version, maxFrame)
	}
	return version, maxFrame, nil
}

// encoder builds a binary body behind headerSize bytes of room, in a
// buffer leased from the memory plane; frame hands both to a frame,
// whose release ends the lease. The zero value is ready to use.
type encoder struct{ b []byte }

// newEncoder sizes the lease for n body bytes up front — the bulk
// paths, whose payload is then copied exactly once.
func newEncoder(n int) *encoder {
	return &encoder{b: mempool.Get(headerSize + n)[:headerSize]}
}

// grow extends the body by n bytes and returns them for filling.
func (e *encoder) grow(n int) []byte {
	if e.b == nil {
		e.b = mempool.Get(headerSize + 48)[:headerSize]
	}
	at := len(e.b)
	if at+n > cap(e.b) {
		b := mempool.Get(max(at+n, 2*cap(e.b)))
		copy(b, e.b)
		mempool.Recycle(e.b)
		e.b = b
	}
	e.b = e.b[:at+n]
	return e.b[at:]
}

func (e *encoder) u64(v uint64) *encoder {
	binary.BigEndian.PutUint64(e.grow(8), v)
	return e
}

func (e *encoder) str(s string) *encoder {
	copy(e.u64(uint64(len(s))).grow(len(s)), s)
	return e
}

func (e *encoder) bytes(p []byte) *encoder {
	return e.u64(uint64(len(p))).put(p)
}

// put appends p with no length prefix (blocks of the known size).
func (e *encoder) put(p []byte) *encoder {
	copy(e.grow(len(p)), p)
	return e
}

// body is what has been encoded so far.
func (e *encoder) body() []byte {
	e.grow(0)
	return e.b[headerSize:]
}

// frame hands the encoded body and its lease to a frame of type typ.
func (e *encoder) frame(typ uint32) frame {
	n := len(e.body())
	return framed(typ, e.b, n)
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
	return e.u64(errCode(err)).str(err.Error()).frame(msgErr)
}
