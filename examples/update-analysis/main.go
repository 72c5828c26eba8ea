// Update-analysis attack demo (§3.1, Figure 1 of the paper): an
// attacker snapshots the raw storage repeatedly, diffs consecutive
// snapshots, and asks one question — is there hidden data in there?
//
// Against the 2003 StegFS there is no dummy traffic: the moment the
// user works, blocks that belong to no plain file change between
// snapshots, and their locations repeat — the hidden file is exposed
// (the Sal_table scenario of Figure 1).
//
// Against StegHide (Construction 2) the agent emits dummy updates
// whenever idle and relocates every updated block, so the changed-
// block distribution during user activity is statistically identical
// to the idle one (Definition 1, §3.2.4): the attacker cannot even
// tell whether anyone is working, let alone where the data lives.
//
//	go run ./examples/update-analysis
package main

import (
	"context"
	"fmt"
	"log"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

const (
	blockSize = 512
	nBlocks   = 4096
	fileBlks  = 48
	intervals = 10
	opsPerInt = 30 // operations per snapshot interval
)

func main() {
	fmt.Println("=== StegFS (2003): no dummy traffic, in-place updates ===")
	demoStegFS()
	fmt.Println()
	fmt.Println("=== StegHide (2004): dummy updates + Figure 6 relocation ===")
	demoStegHide()
}

func demoStegFS() {
	mem := steghide.NewMemDevice(blockSize, nBlocks)
	vol, err := steghide.Format(mem, steghide.FormatOptions{FillSeed: []byte("s1")})
	if err != nil {
		log.Fatal(err)
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	fak := steghide.DeriveFAK("victim", "/ledger", vol)
	f, err := stegfs.CreateFile(vol, fak, "/ledger", src)
	if err != nil {
		log.Fatal(err)
	}
	policy := stegfs.InPlacePolicy{Vol: vol}
	if _, err := f.WriteAt(make([]byte, fileBlks*vol.PayloadSize()), 0, policy); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — idle. StegFS has nothing to do, so nothing changes.
	idleDiffs := diffPhase(mem, func() {})
	fmt.Printf("  idle phase:   %d blocks changed across %d intervals\n", len(idleDiffs), intervals)

	// Phase 2 — the user works. Every change lands on the hidden
	// file's fixed blocks.
	rng := prng.NewFromUint64(2)
	activeDiffs := diffPhase(mem, func() {
		li := uint64(rng.Intn(fileBlks))
		if err := f.WriteBlockAt(li, rng.Bytes(vol.PayloadSize()), policy); err != nil {
			log.Fatal(err)
		}
	})
	distinct := distinctCount(activeDiffs)
	fmt.Printf("  active phase: %d blocks changed, only %d distinct — a stable hot set\n",
		len(activeDiffs), distinct)
	fmt.Println("  verdict: ANY change between snapshots already proves hidden data exists;")
	fmt.Printf("  the %d-block cluster pinpoints it. The victim cannot deny the file.\n", distinct)
}

func demoStegHide() {
	ctx := context.Background()
	mem := steghide.NewMemDevice(blockSize, nBlocks)
	stack, err := steghide.Mount(mem,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("s2")}),
		steghide.WithSeed([]byte("a")))
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	vol := stack.Volume()
	agent := stack.Agent2()
	// The session API rather than an FS handle: its Write issues each
	// update before it returns. A handle's writes wait in memory for
	// Close, and an active phase that never closes would show the
	// attacker nothing but dummy traffic — and prove nothing.
	sess, err := agent.Login("victim", "pw")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.CreateDummy("/cover", 4*fileBlks); err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Create("/ledger"); err != nil {
		log.Fatal(err)
	}
	if err := sess.Write(ctx, "/ledger", make([]byte, fileBlks*vol.PayloadSize()), 0); err != nil {
		log.Fatal(err)
	}
	if err := sess.Save(ctx, "/ledger"); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — idle: the agent emits dummy updates on its own.
	idleDiffs := diffPhase(mem, func() {
		if _, err := agent.DummyUpdateBurst(1); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("  idle phase:   %d blocks changed (dummy traffic never stops)\n", len(idleDiffs))

	// Phase 2 — the user hammers one logical block; dummy traffic
	// continues interleaved.
	rng := prng.NewFromUint64(3)
	ps := vol.PayloadSize()
	activeDiffs := diffPhase(mem, func() {
		if err := sess.Write(ctx, "/ledger", rng.Bytes(ps), 0); err != nil {
			log.Fatal(err)
		}
		if _, err := agent.DummyUpdateBurst(1); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("  active phase: %d blocks changed\n", len(activeDiffs))

	// Definition 1: compare the two distributions.
	verdict, err := attack.CompareStreams(idleDiffs, activeDiffs, nBlocks, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Definition 1 test (idle vs active): p=%.4f — distinguishable: %v\n",
		verdict.PValue, verdict.Detected)
	fmt.Println("  verdict: the attacker cannot tell working hours from idle ones;")
	fmt.Println("  every observed change is deniable as dummy traffic.")
}

// diffPhase takes `intervals` snapshots around opsPerInt ops each and
// returns all changed-block indices.
func diffPhase(mem *steghide.MemDevice, op func()) []uint64 {
	a := steghide.NewUpdateAnalyzer(blockSize, nBlocks)
	if err := a.Observe(mem.Snapshot()); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < intervals; i++ {
		for j := 0; j < opsPerInt; j++ {
			op()
		}
		if err := a.Observe(mem.Snapshot()); err != nil {
			log.Fatal(err)
		}
	}
	return a.ChangedBlocks()
}

func distinctCount(xs []uint64) int {
	set := map[uint64]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return len(set)
}
