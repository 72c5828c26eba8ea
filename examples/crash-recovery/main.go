// Crash recovery: mount a journaled volume, commit hidden files
// through the unified FS, power-cut the storage in the middle of an
// update burst, and bring the volume back with the sealed intent
// journal — without the journal's on-disk footprint betraying which
// updates were real.
//
//	go run ./examples/crash-recovery
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"

	"steghide"
)

func main() {
	ctx := context.Background()

	// The raw storage, wrapped in the failure injector so we can pull
	// the plug at an arbitrary write.
	mem := steghide.NewMemDevice(4096, 4096+256)
	dev := steghide.NewFaultDevice(mem)

	// Mount formats the volume with a 256-slot intent ring right
	// after the superblock and stands up Construction 1 with the
	// journal enabled. Like every other block, the ring is
	// random-filled: an empty journal and a full one are
	// indistinguishable. The agent's secret also derives the journal
	// key, so whoever can mount the volume can recover it.
	secret := []byte("agent secret")
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{
			FillSeed:      []byte("demo entropy"),
			JournalBlocks: 256,
		}),
		steghide.WithConstruction1(secret),
		steghide.WithJournal(""), // C1 derives the ring key from the secret
		steghide.WithSeed([]byte("boot entropy")))
	if err != nil {
		log.Fatal(err)
	}
	vol := stack.Volume()
	fmt.Printf("volume: %d blocks, journal ring %d slots at blocks [1,%d)\n",
		vol.NumBlocks(), vol.JournalBlocks(), 1+vol.JournalBlocks())

	// Commit a hidden file through the FS: write, then close — the
	// header save is the durability point, and the journal records it.
	fs, err := stack.Login("alice", "alice")
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte("the committed truth. "), 400)
	if err := steghide.WriteFile(ctx, fs, "/ledger", payload); err != nil {
		log.Fatal(err)
	}
	state, err := stack.Agent1().State() // the administrator's bitmap snapshot
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed /ledger: %d bytes\n", len(payload))

	// Now a burst of updates and dummy traffic — and the power fails
	// somewhere in the middle of it. Every intent (relocation begin,
	// allocation, save) hit the ring as a sealed cell before the
	// block write it protects, and dummy updates wrote
	// indistinguishable filler cells at the same one-per-element rate.
	// The updates go through the agent's immediate Write, so each is on
	// the device (relocated, unsaved) when it returns; a write handle
	// would hold them in memory until its Close.
	dev.PowerCutAfterWrites(25)
	chunk := make([]byte, vol.PayloadSize())
	var cutErr error
	for i := 0; cutErr == nil && i < 1000; i++ {
		if cutErr = stack.Agent1().WriteCtx(ctx, "/ledger", chunk, uint64(i%4)*uint64(vol.PayloadSize())); cutErr == nil {
			cutErr = stack.Agent1().DummyUpdate()
		}
	}
	if !errors.Is(cutErr, steghide.ErrPowerCut) {
		log.Fatalf("expected the power cut, got: %v", cutErr)
	}
	fmt.Printf("power cut after %d writes mid-burst\n", dev.Writes())

	// ---- reboot --------------------------------------------------------
	dev.Heal()
	stack2, err := steghide.Mount(dev,
		steghide.WithConstruction1(secret),
		steghide.WithJournal(""),
		steghide.WithSeed([]byte("reboot entropy")))
	if err != nil {
		log.Fatal(err)
	}

	// fsck sees a dirty ring: intents with no covering save.
	_, jrep, err := stack2.Fsck(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fsck before recovery: %s (clean=%v)\n", jrep, jrep.Ok())

	// Recovery: restore the bitmap snapshot, then resolve every ring
	// intent against the disk truth — a file's durable header either
	// references a block (live data) or it does not (dummy cover).
	if err := stack2.Agent1().LoadState(state); err != nil {
		log.Fatal(err)
	}
	rep, err := stack2.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovery:", rep)

	// The committed content survived the crash.
	fs2, err := stack2.Login("alice", "alice")
	if err != nil {
		log.Fatal(err)
	}
	got, err := steghide.ReadFile(ctx, fs2, "/ledger")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("committed content did not survive the crash")
	}
	fmt.Println("committed /ledger reads back intact after recovery")

	// And the recovered volume serves traffic again.
	if err := steghide.WriteFile(ctx, fs2, "/ledger", []byte("life goes on")); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := stack2.Agent1().DummyUpdate(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("post-recovery updates and dummy traffic: ok")
}
