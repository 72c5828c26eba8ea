package wire

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"steghide/internal/steghide"
)

// TestWriteVTruncatedStagesNothing sends a msgWriteV whose last segment
// is cut short: the server decodes every segment before staging any, so
// the frame fails whole — no segment staged, no save — and the file
// reads back exactly as its earlier, well-formed writes left it.
func TestWriteVTruncatedStagesNothing(t *testing.T) {
	ctx := context.Background()
	agent := testAgent(t, 30)
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	ps := cli.PayloadSize()
	if ps != agent.Vol().PayloadSize() {
		t.Fatalf("login reply says %d payload bytes per block, the volume has %d", ps, agent.Vol().PayloadSize())
	}
	if err := cli.CreateDummy(ctx, "/cover", 64); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("base."), 4*ps/5+1)[:4*ps]
	if err := cli.WriteV(ctx, "/f", Then{Save: true}, Segment{Data: want}); err != nil {
		t.Fatal(err)
	}
	staged := bytes.Repeat([]byte{'S'}, ps)
	copy(want[ps:], staged)
	if err := cli.WriteV(ctx, "/f", Then{}, Segment{Off: uint64(ps), Data: staged}); err != nil {
		t.Fatal(err)
	}
	before := agent.Stats().DataUpdates

	bad := writeVFrame("/f", Then{Save: true}, []Segment{
		{Off: 0, Data: bytes.Repeat([]byte{'X'}, ps)},
		{Off: uint64(2 * ps), Data: bytes.Repeat([]byte{'Y'}, ps)},
	})
	bad.Body = bad.Body[:len(bad.Body)-3] // three bytes short of the last segment
	if _, err := cli.do(ctx, bad, false); !errors.Is(err, ErrRemote) {
		t.Fatalf("truncated msgWriteV: want a remote error, got %v", err)
	}
	if n := agent.Stats().DataUpdates - before; n != 0 {
		t.Fatalf("truncated msgWriteV issued %d data updates", n)
	}
	got := make([]byte, len(want))
	if n, err := cli.Read(ctx, "/f", got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("after the truncated frame the file reads differently (n=%d err=%v)", n, err)
	}
}

// TestDecodeWriteVRefusesLyingCounts pins the parser's bound: a count
// the body cannot hold is refused before the segment list exists, and
// an unknown flag is malformed.
func TestDecodeWriteVRefusesLyingCounts(t *testing.T) {
	for name, body := range map[string][]byte{
		"count beyond body":     (&encoder{}).str("/f").u64(0).u64(0).u64(1 << 40).body(),
		"count one too many":    (&encoder{}).str("/f").u64(1).u64(0).u64(2).u64(0).bytes([]byte{1}).body(),
		"unknown flag":          (&encoder{}).str("/f").u64(4).u64(0).u64(0).body(),
		"body before the size":  (&encoder{}).str("/f").u64(1).u64(0).body(),
		"size without truncate": (&encoder{}).str("/f").u64(1).u64(5).u64(0).body(),
	} {
		if _, _, segs, err := decodeWriteV(body); err == nil || segs != nil {
			t.Errorf("%s: decoded %d segments, err=%v", name, len(segs), err)
		}
	}
	for _, then := range []Then{{}, {Save: true}, {Truncate: true}, {Truncate: true, Size: 1 << 40, Save: true}} {
		path, got, segs, err := decodeWriteV(writeVFrame("/f", then, []Segment{{Off: 7, Data: []byte("ab")}, {Off: 9}}).Body)
		if err != nil || path != "/f" || got != then || len(segs) != 2 || segs[0].Off != 7 || string(segs[0].Data) != "ab" || segs[1].Off != 9 || len(segs[1].Data) != 0 {
			t.Fatalf("round trip of %+v: %q %+v %+v %v", then, path, got, segs, err)
		}
	}
}

// TestReadReplyCutAtRequest faces a client with a hostile agent that
// answers a read with more bytes than were asked for: Read fills p and
// no more.
func TestReadReplyCutAtRequest(t *testing.T) {
	ln := listen(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		first, err := readFrame(conn, maxBodySize)
		if err != nil || first.Type != msgHello {
			return
		}
		hello := helloFrame(protoV2, maxBodySize)
		hello.ID = first.ID
		if writeFrame(conn, hello) != nil {
			return
		}
		for {
			req, err := readFrame(conn, maxBodySize)
			if err != nil {
				return
			}
			body := make([]byte, 8) // a login reply: the payload size
			if req.Type == msgRead {
				body = bytes.Repeat([]byte("0123456789"), 100)
			}
			if writeFrame(conn, frame{Type: msgOK, ID: req.ID, Body: body}) != nil {
				return
			}
		}
	}()
	ctx := context.Background()
	cli, err := DialAgent(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{'-'}, 40)
	n, err := cli.Read(ctx, "/f", buf[:16], 0)
	if err != nil || n != 16 || string(buf[:16]) != "0123456789012345" || bytes.Count(buf[16:], []byte{'-'}) != 24 {
		t.Fatalf("a 1000-byte reply to a 16-byte read: n=%d err=%v, buffer %q", n, err, buf)
	}
}
