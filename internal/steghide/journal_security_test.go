package steghide

import (
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/prng"
	"steghide/internal/stats"
	"steghide/internal/stegfs"
)

// The journal must not buy durability with secrecy: with journaling
// enabled, (1) the update stream over the steg space keeps the exact
// uniform distribution Definition 1 requires, (2) the full observable
// stream — ring writes included — is indistinguishable between an
// active period and an idle one emitting batches of the same sizes,
// because (3) every stream element carries exactly one ring cell
// whatever it is, so the slots a batch writes are a function of how
// many elements came before it and how many it holds, nothing else.

func newJournaledC1(t *testing.T, nBlocks, ringBlocks uint64) (*NonVolatileAgent, *blockdev.Collector) {
	t.Helper()
	col := &blockdev.Collector{}
	dev := blockdev.NewTraced(blockdev.NewMem(128, nBlocks), col)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("sh-j"), JournalBlocks: ringBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNonVolatile(vol, []byte("agent-secret"), prng.NewFromUint64(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	return a, col
}

// stegWrites counts the steg-space block writes among events: one per
// stream element.
func stegWrites(vol *stegfs.Volume, events []blockdev.Event) (n int) {
	steg, _ := splitWrites(vol, events)
	return len(steg)
}

// ringSlotWrites returns how many ring-slot writes batches of the given
// sizes cost when the first is appended at sequence number seq on a ring
// of k cells per slot: a batch writes every slot from its first cell's
// to its last cell's.
func ringSlotWrites(seq uint64, sizes []int, k uint64) (slots int) {
	cell := seq - 1
	for _, n := range sizes {
		if n > 0 {
			slots += int((cell+uint64(n)-1)/k - cell/k + 1)
			cell += uint64(n)
		}
	}
	return slots
}

// splitWrites separates a traced event stream into steg-space and
// ring writes.
func splitWrites(vol *stegfs.Volume, events []blockdev.Event) (steg, ring []uint64) {
	first := vol.FirstDataBlock()
	for _, e := range blockdev.ExpandEvents(events) {
		if e.Op != blockdev.OpWrite {
			continue
		}
		switch {
		case e.Block >= first:
			steg = append(steg, e.Block)
		case e.Block >= 1:
			ring = append(ring, e.Block)
		}
	}
	return steg, ring
}

func TestJournaledC1Definition1(t *testing.T) {
	a, col := newJournaledC1(t, 2048+256, 256)
	vol := a.Vol()
	if _, err := a.Create("alice", "/w"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64*vol.PayloadSize())
	if err := a.Write("/w", content, 0); err != nil {
		t.Fatal(err)
	}

	// Active period: the most regular workload imaginable. Save-free,
	// and sized under the dummy pool — limbo parks one block per
	// relocation until the next save. Every write is one batch of the
	// stream; its element count is its steg-space write count.
	k := uint64(vol.BlockSize() / journal.CellSize)
	col.Reset()
	activeSeq := a.intents.j.Seq()
	chunk := make([]byte, vol.PayloadSize())
	var sizes []int
	for i := 0; i < 1500; i++ {
		mark := col.Len()
		if err := a.Write("/w", chunk, 0); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, stegWrites(vol, col.Events()[mark:]))
	}
	activeSteg, activeRing := splitWrites(vol, col.Events())

	// Idle period: dummy traffic only, in bursts of the same sizes.
	col.Reset()
	idleSeq := a.intents.j.Seq()
	for _, n := range sizes {
		if issued, err := a.DummyUpdateBurst(n); err != nil || issued != n {
			t.Fatalf("burst issued %d of %d: %v", issued, n, err)
		}
	}
	idleSteg, idleRing := splitWrites(vol, col.Events())

	// (1) Steg-space uniformity under load, journaling on.
	span := vol.NumBlocks() - vol.FirstDataBlock()
	rel := make([]uint64, len(activeSteg))
	for i, b := range activeSteg {
		rel[i] = b - vol.FirstDataBlock()
	}
	hist := stats.Histogram(rel, span, 16)
	if _, p, err := stats.ChiSquareUniform(hist); err != nil || p < 0.001 {
		t.Fatalf("journaled update stream not uniform: p=%v err=%v", p, err)
	}

	// (2) Definition 1 over the whole device, ring included.
	n := vol.NumBlocks()
	h1 := stats.Histogram(append(append([]uint64{}, idleSteg...), idleRing...), n, 16)
	h2 := stats.Histogram(append(append([]uint64{}, activeSteg...), activeRing...), n, 16)
	if _, p, err := stats.ChiSquareTwoSample(h1, h2); err != nil || p < 0.001 {
		t.Fatalf("journaled workload distinguishable from idle: p=%v err=%v", p, err)
	}

	// (3) The ring cadence itself carries no signal: one cell per stream
	// element in both periods, so each period wrote exactly the slots
	// its batch sizes and starting offset dictate.
	if len(idleSteg) != len(activeSteg) || activeSeq+uint64(len(activeSteg)) != idleSeq ||
		idleSeq+uint64(len(idleSteg)) != a.intents.j.Seq() {
		t.Fatalf("ring cells broke 1:1: active %d elements from seq %d, idle %d from %d to %d",
			len(activeSteg), activeSeq, len(idleSteg), idleSeq, a.intents.j.Seq())
	}
	if want := ringSlotWrites(activeSeq, sizes, k); len(activeRing) != want {
		t.Fatalf("active: %d ring writes, batch sizes dictate %d", len(activeRing), want)
	}
	if want := ringSlotWrites(idleSeq, sizes, k); len(idleRing) != want {
		t.Fatalf("idle: %d ring writes, batch sizes dictate %d", len(idleRing), want)
	}
}

func TestJournaledC2Definition1(t *testing.T) {
	col := &blockdev.Collector{}
	dev := blockdev.NewTraced(blockdev.NewMem(256, 2048+128), col)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("sh-j2"), JournalBlocks: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewVolatile(vol, prng.NewFromUint64(5))
	if err := a.EnableJournal(JournalKey(vol, "admin")); err != nil {
		t.Fatal(err)
	}
	s, err := a.LoginWithPassphrase("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 700); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/w"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 40*vol.PayloadSize())
	if err := s.Write("/w", content, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("/w"); err != nil {
		t.Fatal(err)
	}

	// Save-free and under the disclosed dummy pool (limbo parks one
	// block per relocation until the next save).
	k := uint64(vol.BlockSize() / journal.CellSize)
	col.Reset()
	activeSeq := a.jc2.j.Seq()
	chunk := make([]byte, vol.PayloadSize())
	var sizes []int
	for i := 0; i < 600; i++ {
		mark := col.Len()
		if err := s.Write("/w", chunk, 0); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, stegWrites(vol, col.Events()[mark:]))
	}
	activeSteg, activeRing := splitWrites(vol, col.Events())

	// Idle bursts of the same sizes.
	col.Reset()
	idleSeq := a.jc2.j.Seq()
	for _, n := range sizes {
		if issued, err := a.DummyUpdateBurst(n); err != nil || issued != n {
			t.Fatalf("burst issued %d of %d: %v", issued, n, err)
		}
	}
	idleSteg, idleRing := splitWrites(vol, col.Events())

	n := vol.NumBlocks()
	h1 := stats.Histogram(append(append([]uint64{}, idleSteg...), idleRing...), n, 12)
	h2 := stats.Histogram(append(append([]uint64{}, activeSteg...), activeRing...), n, 12)
	if _, p, err := stats.ChiSquareTwoSample(h1, h2); err != nil || p < 0.001 {
		t.Fatalf("journaled C2 workload distinguishable from idle: p=%v err=%v", p, err)
	}
	if len(idleSteg) != len(activeSteg) || activeSeq+uint64(len(activeSteg)) != idleSeq ||
		idleSeq+uint64(len(idleSteg)) != a.jc2.j.Seq() {
		t.Fatalf("ring cells broke 1:1: active %d elements from seq %d, idle %d from %d to %d",
			len(activeSteg), activeSeq, len(idleSteg), idleSeq, a.jc2.j.Seq())
	}
	if ia, ii := ringSlotWrites(activeSeq, sizes, k), ringSlotWrites(idleSeq, sizes, k); len(activeRing) != ia || len(idleRing) != ii {
		t.Fatalf("ring writes are not a function of the batch sizes: active %d want %d, idle %d want %d",
			len(activeRing), ia, len(idleRing), ii)
	}
}

// TestJournaledC1LimboHoldsVacatedBlocks pins the runtime half of the
// protocol: a relocation's vacated block stays out of the dummy pool
// until the owning file's save commits the move.
func TestJournaledC1LimboHoldsVacatedBlocks(t *testing.T) {
	a, _ := newJournaledC1(t, 512+64, 64)
	vol := a.Vol()
	if _, err := a.Create("alice", "/f"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 8*vol.PayloadSize())
	if err := a.Write("/f", content, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync("/f"); err != nil {
		t.Fatal(err)
	}
	free0 := a.Source().FreeCount()
	a.ResetStats()

	// Every relocation from here on must park one block in limbo.
	chunk := make([]byte, vol.PayloadSize())
	for i := 0; i < 16; i++ {
		if err := a.Write("/f", chunk, 0); err != nil {
			t.Fatal(err)
		}
	}
	relocs := a.Stats().Relocations
	if relocs == 0 {
		t.Skip("no relocation in 16 updates (astronomically unlikely)")
	}
	if got := a.Source().FreeCount(); got != free0-relocs {
		t.Fatalf("free count %d after %d relocations, want %d (vacated blocks must sit in limbo)",
			got, relocs, free0-relocs)
	}
	if err := a.Sync("/f"); err != nil {
		t.Fatal(err)
	}
	if got := a.Source().FreeCount(); got != free0 {
		t.Fatalf("free count %d after save, want %d (limbo must drain)", got, free0)
	}
}
