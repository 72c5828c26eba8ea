package workload

import (
	"bytes"
	"testing"

	"steghide/internal/prng"
)

func TestContentDeterministic(t *testing.T) {
	a := Content("/x", 100)
	b := Content("/x", 100)
	c := Content("/y", 100)
	if !bytes.Equal(a, b) {
		t.Fatal("content not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different names share content")
	}
}

func TestUpdatesInBounds(t *testing.T) {
	rng := prng.NewFromUint64(2)
	files := []FileSpec{{Name: "/a", Blocks: 10}, {Name: "/b", Blocks: 20}}
	ops, err := Updates(rng, files, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]uint64{"/a": 10, "/b": 20}
	for _, op := range ops {
		if op.Off+uint64(op.Blocks) > sizes[op.Name] {
			t.Fatalf("op %+v out of bounds", op)
		}
	}
	if _, err := Updates(rng, nil, 1, 1); err == nil {
		t.Fatal("empty file set accepted")
	}
	if _, err := Updates(rng, files, 1, 0); err == nil {
		t.Fatal("zero range accepted")
	}
	if _, err := Updates(rng, []FileSpec{{Name: "/tiny", Blocks: 2}}, 1, 5); err == nil {
		t.Fatal("range larger than file accepted")
	}
}
