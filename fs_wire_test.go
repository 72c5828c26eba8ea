package steghide_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"

	"steghide"
)

// Agent-protocol message types a remote FS's writes travel in
// (internal/wire/frame.go).
const (
	wireMsgTruncate = 0x1A
	wireMsgWriteV   = 0x1B
)

// sentFrame is one request a client sent an agent server: its type and,
// for a msgWriteV, the save flag and the segment count.
type sentFrame struct {
	Type uint32
	Save bool
	Segs uint64
}

// agentTap is a listener that parses what the agent server reads into
// the frames the client sent.
type agentTap struct {
	net.Listener
	mu   sync.Mutex
	sent []sentFrame
}

type agentTapConn struct {
	net.Conn
	tap     *agentTap
	pending []byte // bytes read that do not yet make a whole frame
}

func (l *agentTap) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &agentTapConn{Conn: conn, tap: l}, nil
}

// Read runs on the one goroutine holding the server's read token.
func (c *agentTapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.pending = append(c.pending, p[:n]...)
	for len(c.pending) >= 16 {
		end := 16 + int(binary.BigEndian.Uint64(c.pending[8:]))
		if len(c.pending) < end {
			break
		}
		f := sentFrame{Type: binary.BigEndian.Uint32(c.pending)}
		if f.Type == wireMsgWriteV {
			body := c.pending[16:end]
			rest := body[8+binary.BigEndian.Uint64(body):] // behind the path
			f.Save = binary.BigEndian.Uint64(rest) == 1
			f.Segs = binary.BigEndian.Uint64(rest[8:])
		}
		c.tap.mu.Lock()
		c.tap.sent = append(c.tap.sent, f)
		c.tap.mu.Unlock()
		c.pending = c.pending[end:]
	}
	return n, err
}

// cut returns the frames sent since the last cut.
func (l *agentTap) cut() []sentFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sent
	l.sent = nil
	return s
}

// TestRemoteRunIsOneFrame counts the frames a remote FS sends the agent
// for the three write shapes of the rig's file mix. Sixteen scattered
// single-block WriteAts send nothing, and the Close sends them with the
// save as one msgWriteV. WriteFile of 256 KiB over an existing file is
// three frames: its one large write, the truncate, the save. Writing a
// 65th distinct block sends the run inside that WriteAt, so the agent
// issues the first 64 where a local session would.
func TestRemoteRunIsOneFrame(t *testing.T) {
	ctx := context.Background()
	stack, err := steghide.Mount(steghide.NewMemDevice(4096, 2048),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("one-frame"), KDFIterations: 4}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("one-frame-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &agentTap{Listener: ln}
	srv, err := steghide.ServeListener(tap, stack)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fs, err := steghide.DialFS(ctx, srv.Addr(), "alice", "alice-pass")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.CreateDummy(ctx, "/cover", 512); err != nil {
		t.Fatal(err)
	}
	ps := stack.Volume().PayloadSize()
	const blocks = 80
	want := bytes.Repeat([]byte("base."), blocks*ps/5+1)[:blocks*ps]
	if err := steghide.WriteFile(ctx, fs, "/f", want); err != nil {
		t.Fatal(err)
	}
	updates := func() uint64 { return stack.Agent2().Stats().DataUpdates }
	expect := func(when string, want ...sentFrame) {
		t.Helper()
		if got := tap.cut(); !slices.Equal(got, want) {
			t.Fatalf("%s sent %+v, want %+v", when, got, want)
		}
	}
	block := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, ps) }

	tap.cut()
	h, err := fs.OpenWrite(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	before := updates()
	for i := 0; i < 16; i++ {
		li := i * 37 % blocks
		copy(want[li*ps:], block(byte('A'+i)))
		if _, err := h.WriteAt(block(byte('A'+i)), int64(li*ps)); err != nil {
			t.Fatal(err)
		}
	}
	expect("OpenWrite and 16 scattered WriteAts")
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	expect("the Close", sentFrame{Type: wireMsgWriteV, Save: true, Segs: 16})
	if n := updates() - before; n != 16 {
		t.Fatalf("the Close issued %d data updates, want 16", n)
	}

	want = bytes.Repeat([]byte("rewrite."), 256<<10/8)
	if err := steghide.WriteFile(ctx, fs, "/f", want); err != nil {
		t.Fatal(err)
	}
	expect("WriteFile(256 KiB) over an existing file",
		sentFrame{Type: wireMsgWriteV, Segs: 1}, sentFrame{Type: wireMsgTruncate}, sentFrame{Type: wireMsgWriteV, Save: true})

	if h, err = fs.OpenWrite(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	before = updates()
	want = append(want, make([]byte, 65*ps-len(want))...) // the 65th block runs past the end
	for li := 0; li <= 64; li++ {
		copy(want[li*ps:], block(byte('a'+li%26)))
		if _, err := h.WriteAt(block(byte('a'+li%26)), int64(li*ps)); err != nil {
			t.Fatal(err)
		}
		if li < 64 {
			expect("a WriteAt of one of 64 distinct blocks")
		}
	}
	expect("the 65th distinct block", sentFrame{Type: wireMsgWriteV, Segs: 65})
	if n := updates() - before; n != 64 {
		t.Fatalf("the 65th distinct block issued %d data updates, want 64", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	expect("the Close after it", sentFrame{Type: wireMsgWriteV, Save: true})
	if got, err := steghide.ReadFile(ctx, fs, "/f"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (err=%v), want the %d written", len(got), err, len(want))
	}
}
