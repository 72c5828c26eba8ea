package blockdev

import (
	"bytes"
	"errors"
	"testing"

	"steghide/internal/prng"
)

func TestStripedContract(t *testing.T) {
	members := []Device{NewMem(128, 32), NewMem(128, 32), NewMem(128, 40)}
	s, err := NewStriped(members...)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity: 3 × min(32,32,40) = 96.
	if s.NumBlocks() != 96 || s.BlockSize() != 128 {
		t.Fatalf("geometry %d/%d", s.NumBlocks(), s.BlockSize())
	}
	deviceContract(t, s)
}

func TestStripedValidation(t *testing.T) {
	if _, err := NewStriped(); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewStriped(NewMem(128, 8), NewMem(256, 8)); err == nil {
		t.Fatal("mismatched block sizes accepted")
	}
}

func TestStripedDistribution(t *testing.T) {
	// Uniform volume addresses must land uniformly on members.
	a, b, c := NewMem(64, 100), NewMem(64, 100), NewMem(64, 100)
	var ca, cb, cc Counter
	s, err := NewStriped(NewTraced(a, &ca), NewTraced(b, &cb), NewTraced(c, &cc))
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(1)
	buf := make([]byte, 64)
	const ops = 3000
	for i := 0; i < ops; i++ {
		if err := ReadBlock(s, rng.Uint64n(s.NumBlocks()), buf); err != nil {
			t.Fatal(err)
		}
	}
	for name, cnt := range map[string]*Counter{"a": &ca, "b": &cb, "c": &cc} {
		share := float64(cnt.Reads()) / ops
		if share < 0.28 || share > 0.39 {
			t.Fatalf("member %s saw %.0f%% of traffic", name, share*100)
		}
	}
}

func TestStripedLocateRoundTrip(t *testing.T) {
	s, err := NewStriped(NewMem(64, 10), NewMem(64, 10))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]bool{}
	for i := uint64(0); i < s.NumBlocks(); i++ {
		m, local := s.Locate(i)
		key := [2]uint64{uint64(m), local}
		if seen[key] {
			t.Fatalf("block %d collides at member %d local %d", i, m, local)
		}
		seen[key] = true
	}
}

func TestStripedWithVolumeStack(t *testing.T) {
	// A striped volume is a drop-in Device: verify data written via
	// the stripe is readable and actually spread across members.
	members := []Device{NewMem(128, 512), NewMem(128, 512), NewMem(128, 512), NewMem(128, 512)}
	s, err := NewStriped(members...)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(2)
	want := map[uint64][]byte{}
	for i := 0; i < 200; i++ {
		idx := rng.Uint64n(s.NumBlocks())
		data := rng.Bytes(128)
		if err := WriteBlock(s, idx, data); err != nil {
			t.Fatal(err)
		}
		want[idx] = data
	}
	buf := make([]byte, 128)
	for idx, data := range want {
		if err := ReadBlock(s, idx, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("block %d mismatch", idx)
		}
	}
	// Out-of-range still errors.
	if err := ReadBlock(s, s.NumBlocks(), buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFastMemberProbe(t *testing.T) {
	mem := NewMem(128, 64)
	sub, err := NewSub(mem, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	fastStripe, err := NewStriped(NewMem(128, 32), sub)
	if err != nil {
		t.Fatal(err)
	}
	if !fastStripe.allFast {
		t.Fatal("all-memory stripe not detected as fast")
	}
	if !fastMember(fastStripe) {
		t.Fatal("nested fast stripe not detected as fast")
	}
	// A member with real I/O latency keeps the concurrent fan-out.
	f, err := CreateFile(t.TempDir()+"/member", 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slowStripe, err := NewStriped(NewMem(128, 32), f)
	if err != nil {
		t.Fatal(err)
	}
	if slowStripe.allFast {
		t.Fatal("file-backed member misclassified as memory-speed")
	}
}
