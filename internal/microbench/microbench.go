// Package microbench defines the fixed micro-benchmark suite that
// cmd/benchrunner can run outside `go test` and emit as
// machine-readable JSON (BENCH_results.json), giving successive PRs a
// perf trajectory to compare against. The suite covers the hot paths
// the batch I/O plane serves — raw device batches (local and remote),
// the oblivious reshuffle, a sequential hidden-file scan — and the
// multi-client scaling curve of the update scheduler
// (concurrent-clients/local-N and /wire-N: aggregate Figure-6 update
// throughput at 1/4/16/64 concurrent sessions) — plus the wire
// protocol's pipelining benchmark (wire-pipeline/pipelined-N: N
// sessions × 8-deep reads sharing their connections), the staged seal
// pipeline's
// paired arms (seal-pipeline/serial-N vs /pipelined-N, and the
// burst-level pair over a live scheduler), and the observability
// plane's paired overhead arms (obs/update-metrics-off vs /on: the
// same update burst with and without the metric registry attached).
package microbench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/oblivious"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
	"steghide/internal/wire"
)

// Result is one benchmark's outcome in stable, diffable units.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloc_bytes_per_op"`
}

// bench is one suite entry.
type bench struct {
	name string
	fn   func(b *testing.B)
}

const (
	benchBS    = 4096
	benchBatch = 64
)

func suite() []bench {
	s := []bench{
		{"batch-read-mem/loop", func(b *testing.B) { devRead(b, blockdev.NewMem(benchBS, 1<<10), false) }},
		{"batch-read-mem/batched", func(b *testing.B) { devRead(b, blockdev.NewMem(benchBS, 1<<10), true) }},
		{"batch-read-wire/loop", func(b *testing.B) { remoteRead(b, false) }},
		{"batch-read-wire/batched", func(b *testing.B) { remoteRead(b, true) }},
		{"oblivious-reshuffle", obliviousReshuffle},
		{"stegfs-seq-scan", stegfsScan},
		{"journal/append", journalAppend},
		{"journal/recover", journalRecover},
	}
	s = append(s, ConcurrentClientSuite()...)
	s = append(s, FleetSuite()...)
	s = append(s, PipelineSuite()...)
	s = append(s, SealPipelineSuite()...)
	s = append(s, ObsSuite()...)
	return append(s, MemPoolSuite()...)
}

// Run executes the whole suite and returns the results.
func Run() []Result {
	var out []Result
	for _, bm := range suite() {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		res := Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		out = append(out, res)
	}
	return out
}

// WriteJSON runs the suite and writes it to path.
func WriteJSON(path string) error {
	results := Run()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("microbench: %w", err)
	}
	return nil
}

func devRead(b *testing.B, d blockdev.Device, batched bool) {
	bufs := blockdev.AllocBlocks(benchBatch, d.BlockSize())
	b.SetBytes(int64(benchBatch * d.BlockSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := blockdev.ReadBlocks(d, 0, bufs); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for j := range bufs {
			if err := d.ReadBlock(uint64(j), bufs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func remoteRead(b *testing.B, batched bool) {
	srv, err := wire.NewStorageServer("127.0.0.1:0", blockdev.NewMem(benchBS, 1<<8), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	dev, err := wire.DialStorage(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	devRead(b, dev, batched)
}

func obliviousReshuffle(b *testing.B) {
	const bufBlocks, levels = 16, 4
	dev := blockdev.NewMem(512, oblivious.Footprint(bufBlocks, levels)+8)
	s, err := oblivious.New(oblivious.Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("bench"), "obli"),
		BufferBlocks: bufBlocks,
		Levels:       levels,
		RNG:          prng.NewFromUint64(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, s.ValueSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(oblivious.BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			b.Fatal(err)
		}
	}
}

// journalAppend measures the per-element cost of the durability plane:
// one sealed intent slot write, the price every stream element pays
// when journaling is on.
func journalAppend(b *testing.B) {
	vol, err := stegfs.Format(blockdev.NewMem(benchBS, 1<<10),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("jb"), JournalBlocks: 256})
	if err != nil {
		b.Fatal(err)
	}
	j, err := journal.Open(vol, sealer.DeriveKey([]byte("bench"), "journal"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBS))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.AppendReloc(uint64(300+i%32), uint64(400+i%64), uint64(500+i%64)); err != nil {
			b.Fatal(err)
		}
	}
}

// journalRecover measures mount-time recovery: scan a populated ring
// and resolve every intent against the on-disk headers.
func journalRecover(b *testing.B) {
	vol, err := stegfs.Format(blockdev.NewMem(benchBS, 1<<11),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("jr"), JournalBlocks: 256})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := steghide.NewNonVolatile(vol, []byte("bench-secret"), prng.NewFromUint64(3))
	if err != nil {
		b.Fatal(err)
	}
	if err := agent.EnableJournal(); err != nil {
		b.Fatal(err)
	}
	if _, err := agent.Create("u", "/f"); err != nil {
		b.Fatal(err)
	}
	content := make([]byte, 32*vol.PayloadSize())
	if err := agent.Write("/f", content, 0); err != nil {
		b.Fatal(err)
	}
	if err := agent.Sync("/f"); err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, vol.PayloadSize())
	for i := 0; i < 200; i++ {
		if err := agent.Write("/f", chunk, uint64(i%32)*uint64(vol.PayloadSize())); err != nil {
			b.Fatal(err)
		}
	}
	if err := agent.Sync("/f"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

func stegfsScan(b *testing.B) {
	vol, err := stegfs.Format(blockdev.NewMem(512, 1<<14),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("b")})
	if err != nil {
		b.Fatal(err)
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	fak := stegfs.DeriveFAK("u", "/scan", vol)
	f, err := stegfs.CreateFile(vol, fak, "/scan", src)
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 128
	data := prng.NewFromUint64(2).Bytes(blocks * vol.PayloadSize())
	if _, err := f.WriteAt(data, 0, stegfs.InPlacePolicy{Vol: vol}); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
