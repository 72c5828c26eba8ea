package steghide

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// TestSeededC2Replays pins that a seeded Construction-2 run is a
// function of its seed alone. Three agent choices used to follow Go map
// order: which dummy file a released block joins, the order a deleted
// file's blocks leave the registry (whose order every later draw
// indexes), and the order logout flushes and saves the session's files.
// One script exercises all three; every run must write the same image
// through the same device trace.
func TestSeededC2Replays(t *testing.T) {
	const runs = 24
	images, traces := map[[32]byte]bool{}, map[[32]byte]bool{}
	for range runs {
		image, trace := seededC2Run(t)
		images[image] = true
		traces[trace] = true
	}
	if len(images) != 1 || len(traces) != 1 {
		t.Fatalf("%d identical seeded runs gave %d device images and %d traces, want 1 and 1",
			runs, len(images), len(traces))
	}
}

// seededC2Run runs the replay script on a fresh seeded volume and
// returns the digests of the final device image and of its trace.
func seededC2Run(t *testing.T) (image, trace [32]byte) {
	t.Helper()
	mem := blockdev.NewMem(128, 2048)
	col := &blockdev.Collector{}
	vol, err := stegfs.Format(blockdev.NewTraced(mem, col),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("replay")})
	if err != nil {
		t.Fatal(err)
	}
	a := NewVolatile(vol, prng.NewFromUint64(21))
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ps := vol.PayloadSize()
	for i := range 3 {
		if _, err := s.CreateDummy(fmt.Sprintf("/cover-%d", i), 64); err != nil {
			t.Fatal(err)
		}
	}
	// Release: shrinking a 20-block file hands its blocks to the three
	// dummy files.
	if _, err := s.Create("/big"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "/big", make([]byte, 20*ps), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(ctx, "/big", 0); err != nil {
		t.Fatal(err)
	}
	// forgetFile: a delete unregisters the file's blocks.
	if err := s.Delete("/big"); err != nil {
		t.Fatal(err)
	}
	// Logout: five files with staged bytes reach the stream at logout,
	// and every draw indexes the registry the delete left.
	for i := range 5 {
		path := fmt.Sprintf("/staged-%d", i)
		if _, err := s.Create(path); err != nil {
			t.Fatal(err)
		}
		if err := s.Stage(ctx, path, bytes.Repeat([]byte{byte(i + 1)}, 3*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range col.Events() {
		fmt.Fprintf(h, "%d %d %d\n", e.Op, e.Block, e.Count)
	}
	copy(trace[:], h.Sum(nil))
	return sha256.Sum256(mem.Snapshot()), trace
}
