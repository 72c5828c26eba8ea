package oblivious

import (
	"encoding/binary"
	"fmt"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

func benchStore(b testing.TB, bufferBlocks, levels int) *Store {
	b.Helper()
	dev := blockdev.NewMem(512, Footprint(bufferBlocks, levels)+8)
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("bench"), "obli"),
		BufferBlocks: bufferBlocks,
		Levels:       levels,
		RNG:          prng.NewFromUint64(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkReshuffle drives the store's write path hard enough that
// every iteration pays for buffer flushes and level merges — the
// external-sort reshuffle whose allocation behaviour the batch plane
// and scratch reuse are meant to fix. Run with -benchmem.
func BenchmarkReshuffle(b *testing.B) {
	s := benchStore(b, 16, 4)
	val := make([]byte, s.ValueSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDump times one level merge at the benchmark rig's geometry
// (4 KiB slots, B = 32, k = 6): dump(0), the smallest (192 slots, two
// merge passes), and dump(4), the largest (3072 slots, three). A dump
// leaves the store valid for the next one, so the loop needs no
// set-up between iterations.
func BenchmarkDump(b *testing.B) {
	const bufCap, levels = 32, 6
	dev := blockdev.NewMem(4096, Footprint(bufCap, levels))
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("bench"), "obli"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, s.ValueSize())
	for i := 0; i < s.Capacity(); i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val); err != nil {
			b.Fatal(err)
		}
	}
	for _, lvl := range []int{0, levels - 2} {
		slots := s.levels[lvl].region.Len + s.levels[lvl+1].region.Len
		b.Run(fmt.Sprintf("level%d", lvl+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.dump(lvl); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
		})
	}
}

// BenchmarkObliviousGet measures the steady-state probe path (one
// batched scattered read per access).
func BenchmarkObliviousGet(b *testing.B) {
	s := benchStore(b, 16, 4)
	val := make([]byte, s.ValueSize())
	for i := 0; i < s.Capacity()/2; i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(BlockID{File: 1, Index: uint64(i % (s.Capacity() / 2))}); err != nil {
			b.Fatal(err)
		}
	}
}
