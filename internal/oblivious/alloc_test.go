package oblivious

import (
	"bytes"
	"encoding/binary"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/prng"
	"steghide/internal/race"
	"steghide/internal/sealer"
)

// TestAllocBudgets pins the store's hot paths after the zero-alloc
// conversion. Put amortizes every buffer flush and level reshuffle the
// write stream triggers; steady state measures 0 — flush and dump run
// entirely in the store's scratch and the sort's window — and the
// ceiling of 1 is headroom for a map growing at the edge of the
// warm-up. GetInto pins the probe path, whose batched
// scattered read reuses the store's slabs and whose value lands in the
// caller's buffer: on a host whose RSS tracks garbage, a 4 KiB copy per
// hit was the read path's whole footprint.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	s := benchStore(t, 16, 4)
	val := make([]byte, s.ValueSize())
	// Warm-up: fill past the first full-hierarchy reshuffle so every
	// lazily grown structure (entry freelist, sort window, spare index)
	// reaches its high-water mark.
	for i := 0; i < 4*s.Capacity(); i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
	}
	var i uint64
	allocs := testing.AllocsPerRun(512, func() {
		binary.BigEndian.PutUint64(val, i)
		if err := s.Put(BlockID{File: 1, Index: i % uint64(s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("Put (amortized over flush/reshuffle): %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Errorf("Put = %.2f allocs/op amortized, budget 1", allocs)
	}

	gets := testing.AllocsPerRun(256, func() {
		if _, err := s.GetInto(BlockID{File: 1, Index: i % uint64(s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("GetInto (probe path, amortized over promotions' flushes): %.2f allocs/op", gets)
	if gets > 4 {
		t.Errorf("GetInto = %.2f allocs/op, budget 4", gets)
	}
}

// runPoolOracle executes a fixed write/read workload against a fresh
// store and returns the final device image plus every Get result. The
// flush path places buffer survivors in version order (not map order),
// so the sealed image is a deterministic function of the RNG stream —
// which is exactly what lets this oracle compare full images across
// the pool toggle.
func runPoolOracle(t *testing.T, pooled bool) ([]byte, [][]byte) {
	t.Helper()
	prev := mempool.Enabled()
	mempool.SetEnabled(pooled)
	defer mempool.SetEnabled(prev)

	dev := blockdev.NewMem(512, Footprint(16, 4)+8)
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("pool-oracle"), "obli"),
		BufferBlocks: 16,
		Levels:       4,
		RNG:          prng.NewFromUint64(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, s.ValueSize())
	for i := 0; i < 3*s.Capacity(); i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
	}
	var gets [][]byte
	for i := 0; i < s.Capacity(); i++ {
		v, ok, err := s.Get(BlockID{File: 1, Index: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			gets = append(gets, append([]byte(nil), v...))
		} else {
			gets = append(gets, nil)
		}
	}
	return dev.Snapshot(), gets
}

// TestMemPoolImageOracle pins the zero-alloc conversion of the store
// bit-for-bit: the entire sealed device image and every read-back
// value must be identical with the pools on and off.
func TestMemPoolImageOracle(t *testing.T) {
	imgOff, getsOff := runPoolOracle(t, false)
	imgOn, getsOn := runPoolOracle(t, true)
	if !bytes.Equal(imgOff, imgOn) {
		t.Fatal("sealed device images differ between pooled and unpooled runs")
	}
	for i := range getsOff {
		if !bytes.Equal(getsOff[i], getsOn[i]) {
			t.Fatalf("Get(%d) diverged between pooled and unpooled runs", i)
		}
	}
}
