package journal_test

import (
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
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
	if _, err := agent.Create("u", "/f"); err != nil {
		b.Fatal(err)
	}
	ps := uint64(vol.PayloadSize())
	if err := agent.Write("/f", make([]byte, 32*ps), 0); err != nil {
		b.Fatal(err)
	}
	if err := agent.Sync("/f"); err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, ps)
	for i := uint64(0); i < 200; i++ {
		if err := agent.Write("/f", chunk, i%32*ps); err != nil {
			b.Fatal(err)
		}
	}
	if err := agent.Sync("/f"); err != nil {
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
