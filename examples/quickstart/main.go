// Quickstart: mount a steganographic stack, hide a file through the
// unified FS interface, demonstrate plausible deniability, and show
// that the agent forgets everything when the session closes.
//
//	go run ./examples/quickstart
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

	// The raw storage: 32 MiB of 4 KiB blocks, in memory. Swap in
	// steghide.CreateFileDevice or steghide.DialStorage for durable or
	// remote deployments — Mount does not care.
	dev := steghide.NewMemDevice(4096, 8192)

	// Mount assembles the whole stack: format (every block filled with
	// random bytes, so free space and hidden ciphertext are
	// indistinguishable), the trusted volatile agent of the system
	// model (Construction 2 — no persistent secrets), and whatever
	// else the options ask for (WithJournal, WithDaemonBurst, WithTrace,
	// WithStripe, WithObliviousCache...).
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("demo entropy")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("agent entropy")))
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	vol := stack.Volume()
	fmt.Printf("volume: %d blocks x %d bytes, payload %d bytes/block\n",
		vol.NumBlocks(), vol.BlockSize(), vol.PayloadSize())

	// --- Alice's session ------------------------------------------------
	// Login returns the unified steghide.FS — the same interface every
	// front-end of this package implements (local sessions, both
	// constructions, remote clients, the oblivious composition).
	alice, err := stack.Login("alice", "correct horse battery staple")
	if err != nil {
		log.Fatal(err)
	}

	// Dummy files serve two purposes: they are the relocation targets
	// that make update-hiding work, and they are what Alice can hand
	// over under coercion.
	if err := alice.CreateDummy(ctx, "/taxes-2003", 512); err != nil {
		log.Fatal(err)
	}
	secret := []byte("met the source at the usual place; they have the documents")
	if err := steghide.WriteFile(ctx, alice, "/diary", secret); err != nil {
		log.Fatal(err)
	}

	// Every write relocated its block to a uniformly random position
	// and may have camouflage-updated unrelated blocks on the way.
	stats := stack.Agent2().Stats()
	fmt.Printf("agent stats: %d data updates, %d relocations, %d camouflage touches\n",
		stats.DataUpdates, stats.Relocations, stats.Camouflage)

	// Idle-time dummy traffic — indistinguishable from the writes
	// above without the keys. (WithDaemonBurst automates this; here it is
	// explicit so the run is deterministic.)
	for i := 0; i < 100; i++ {
		if _, err := stack.Agent2().DummyUpdateBurst(1); err != nil {
			log.Fatal(err)
		}
	}

	// Closing the FS logs Alice out: the agent forgets every key and
	// block she disclosed — the volatility property.
	if err := alice.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after logout the agent knows %d blocks (volatility)\n",
		stack.Agent2().KnownBlocks())

	// --- A later session reads the diary back ---------------------------
	alice2, err := stack.Login("alice", "correct horse battery staple")
	if err != nil {
		log.Fatal(err)
	}
	got, err := steghide.ReadFile(ctx, alice2, "/diary")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		log.Fatal("diary corrupted?!")
	}
	fmt.Printf("diary recovered: %q\n", got)
	if err := alice2.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Coercion scene ---------------------------------------------------
	// Alice is compelled to open her vault. She reveals the dummy
	// file's path and key — a perfectly real, perfectly meaningless
	// file — and claims that is all there is.
	coerced, err := stack.Login("alice", "correct horse battery staple")
	if err != nil {
		log.Fatal(err)
	}
	info, err := coerced.Disclose(ctx, "/taxes-2003")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under coercion Alice reveals /taxes-2003: dummy=%v — and denies everything else\n",
		info.Dummy)
	coerced.Close()

	// The adversary guessing at other paths learns nothing: a wrong
	// key and a nonexistent file are the same *steghide.PathError
	// wrapping ErrNotFound.
	adversary, err := stack.Login("alice", "wrong-guess")
	if err != nil {
		log.Fatal(err)
	}
	defer adversary.Close()
	if _, err := adversary.Disclose(ctx, "/diary"); errors.Is(err, steghide.ErrNotFound) {
		fmt.Println("adversary probing /diary with a guessed key: no such file (or wrong key)")
	}
}
