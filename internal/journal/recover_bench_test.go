package journal_test

import (
	"context"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// BenchmarkRecover measures mount-time recovery: scan a populated ring
// (one 32-block file, 200 single-block updates behind its last save but
// one) and resolve every intent against the on-disk headers. The rig's
// workloads never crash, so this is the one number bench/ has no
// equivalent for.
func BenchmarkRecover(b *testing.B) {
	vol, err := stegfs.Format(blockdev.NewMem(4096, 1<<11),
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
	f, err := agent.Create("u", "/f")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ps := uint64(vol.PayloadSize())
	if err := agent.Write(ctx, "/f", f, make([]byte, 32*ps), 0); err != nil {
		b.Fatal(err)
	}
	if err := agent.Sync(ctx, "/f", f); err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, ps)
	for i := uint64(0); i < 200; i++ {
		if err := agent.Write(ctx, "/f", f, chunk, i%32*ps); err != nil {
			b.Fatal(err)
		}
	}
	if err := agent.Sync(ctx, "/f", f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenFullRing measures Open's scan of a full ring — 256 slots
// of 4 KiB, 16 384 cells — written in batches of 64 by the idle cover
// stream (fillers) and by intents alone (every cell a sealed record).
func BenchmarkOpenFullRing(b *testing.B) {
	for _, kind := range []struct {
		name string
		op   journal.Op
	}{{"fillers", journal.OpDummy}, {"intents", journal.OpReloc}} {
		b.Run(kind.name, func(b *testing.B) {
			vol, err := stegfs.Format(blockdev.NewMem(4096, 512),
				stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("jo"), JournalBlocks: 256})
			if err != nil {
				b.Fatal(err)
			}
			key := sealer.DeriveKey([]byte("bench"), "journal")
			j, err := journal.Open(vol, key)
			if err != nil {
				b.Fatal(err)
			}
			for done := uint64(0); done < j.Capacity(); done += 64 {
				err := j.AppendBatch(64, func(i int, r *journal.Record) {
					*r = journal.Record{Op: kind.op, FileH: 9, OldLoc: done + uint64(i), NewLoc: done + uint64(i) + 1}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := journal.Open(vol, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
