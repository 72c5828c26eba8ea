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
	if err := cli.WriteV(ctx, "/f", true, Segment{Data: want}); err != nil {
		t.Fatal(err)
	}
	staged := bytes.Repeat([]byte{'S'}, ps)
	copy(want[ps:], staged)
	if err := cli.WriteV(ctx, "/f", false, Segment{Off: uint64(ps), Data: staged}); err != nil {
		t.Fatal(err)
	}
	before := agent.Stats().DataUpdates

	bad := writeVFrame("/f", true, []Segment{
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
// the body cannot hold is refused before the segment list exists, and a
// save flag other than 0 or 1 is malformed.
func TestDecodeWriteVRefusesLyingCounts(t *testing.T) {
	for name, body := range map[string][]byte{
		"count beyond body":  (&encoder{}).str("/f").u64(0).u64(1 << 40).body(),
		"count one too many": (&encoder{}).str("/f").u64(1).u64(2).u64(0).bytes([]byte{1}).body(),
		"save flag 2":        (&encoder{}).str("/f").u64(2).u64(0).body(),
	} {
		if _, _, segs, err := decodeWriteV(body); err == nil || segs != nil {
			t.Errorf("%s: decoded %d segments, err=%v", name, len(segs), err)
		}
	}
	path, save, segs, err := decodeWriteV(writeVFrame("/f", true, []Segment{{Off: 7, Data: []byte("ab")}, {Off: 9}}).Body)
	if err != nil || path != "/f" || !save || len(segs) != 2 || segs[0].Off != 7 || string(segs[0].Data) != "ab" || segs[1].Off != 9 || len(segs[1].Data) != 0 {
		t.Fatalf("round trip: %q %v %+v %v", path, save, segs, err)
	}
}
