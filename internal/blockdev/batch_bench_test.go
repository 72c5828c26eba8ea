package blockdev

import (
	"path/filepath"
	"testing"
)

// Paired loop-vs-batched benchmarks: the same 64-block transfer
// through the per-block Device interface and through the batch plane.

const (
	benchBS    = 4096
	benchBatch = 64
)

func benchDeviceRead(b *testing.B, d Device, batched bool) {
	b.Helper()
	bufs := AllocBlocks(benchBatch, d.BlockSize())
	seed := AllocBlocks(benchBatch, d.BlockSize())
	fillPattern(seed, 5)
	if err := d.WriteBlocks(0, seed); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBatch * d.BlockSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := d.ReadBlocks(0, bufs); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for j := range bufs {
			if err := ReadBlock(d, uint64(j), bufs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchDeviceWrite(b *testing.B, d Device, batched bool) {
	b.Helper()
	data := AllocBlocks(benchBatch, d.BlockSize())
	fillPattern(data, 5)
	b.SetBytes(int64(benchBatch * d.BlockSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := d.WriteBlocks(0, data); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for j := range data {
			if err := WriteBlock(d, uint64(j), data[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchRead(b *testing.B) {
	b.Run("mem/loop", func(b *testing.B) { benchDeviceRead(b, NewMem(benchBS, 1<<10), false) })
	b.Run("mem/batched", func(b *testing.B) { benchDeviceRead(b, NewMem(benchBS, 1<<10), true) })
	b.Run("file/loop", func(b *testing.B) {
		d, err := CreateFile(filepath.Join(b.TempDir(), "v"), benchBS, 1<<10)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		benchDeviceRead(b, d, false)
	})
	b.Run("file/batched", func(b *testing.B) {
		d, err := CreateFile(filepath.Join(b.TempDir(), "v"), benchBS, 1<<10)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		benchDeviceRead(b, d, true)
	})
	b.Run("striped-mem/loop", func(b *testing.B) {
		s, err := NewStriped(NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9))
		if err != nil {
			b.Fatal(err)
		}
		benchDeviceRead(b, s, false)
	})
	b.Run("striped-mem/batched", func(b *testing.B) {
		s, err := NewStriped(NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9))
		if err != nil {
			b.Fatal(err)
		}
		benchDeviceRead(b, s, true)
	})
}

// benchDeviceReadAt measures the scattered-batch path (the shape dummy
// bursts and oblivious probes use) against the per-block loop.
func benchDeviceReadAt(b *testing.B, d Device, batched bool) {
	b.Helper()
	bufs := AllocBlocks(benchBatch, d.BlockSize())
	idx := make([]uint64, benchBatch)
	for i := range idx {
		idx[i] = uint64(i*7) % d.NumBlocks() // scattered, deterministic
	}
	b.SetBytes(int64(benchBatch * d.BlockSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := d.ReadBlocksAt(idx, bufs); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for j, x := range idx {
			if err := ReadBlock(d, x, bufs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStripedScattered pairs the scattered loop against the
// batched path on all-memory members — the case where goroutine
// fan-out used to cost more than it hid; the cheap-member heuristic
// keeps these sub-batches inline.
func BenchmarkStripedScattered(b *testing.B) {
	newStriped := func(b *testing.B) *Striped {
		s, err := NewStriped(NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9), NewMem(benchBS, 1<<9))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("mem/loop", func(b *testing.B) { benchDeviceReadAt(b, newStriped(b), false) })
	b.Run("mem/batched", func(b *testing.B) { benchDeviceReadAt(b, newStriped(b), true) })
}

func BenchmarkBatchWrite(b *testing.B) {
	b.Run("mem/loop", func(b *testing.B) { benchDeviceWrite(b, NewMem(benchBS, 1<<10), false) })
	b.Run("mem/batched", func(b *testing.B) { benchDeviceWrite(b, NewMem(benchBS, 1<<10), true) })
	b.Run("file/loop", func(b *testing.B) {
		d, err := CreateFile(filepath.Join(b.TempDir(), "v"), benchBS, 1<<10)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		benchDeviceWrite(b, d, false)
	})
	b.Run("file/batched", func(b *testing.B) {
		d, err := CreateFile(filepath.Join(b.TempDir(), "v"), benchBS, 1<<10)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		benchDeviceWrite(b, d, true)
	})
}
