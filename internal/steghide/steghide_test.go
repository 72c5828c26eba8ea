package steghide

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stats"
	"steghide/internal/stegfs"
)

// newTracedVolume builds a small volume over a traced device so tests
// can observe the agent's I/O like an attacker would.
func newTracedVolume(t *testing.T, nBlocks uint64) (*stegfs.Volume, *blockdev.Collector) {
	t.Helper()
	col := &blockdev.Collector{}
	dev := blockdev.NewTraced(blockdev.NewMem(128, nBlocks), col)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("sh")})
	if err != nil {
		t.Fatal(err)
	}
	col.Reset()
	return vol, col
}

// --- Construction 1 ---------------------------------------------------

func newC1(t *testing.T, nBlocks uint64) (*NonVolatileAgent, *blockdev.Collector) {
	t.Helper()
	vol, col := newTracedVolume(t, nBlocks)
	a, err := NewNonVolatile(vol, []byte("agent-secret"), prng.NewFromUint64(11))
	if err != nil {
		t.Fatal(err)
	}
	return a, col
}

// usedBlocks returns the number of live blocks in a's steg space.
func usedBlocks(a *NonVolatileAgent) uint64 {
	return a.Vol().NumBlocks() - a.Vol().FirstDataBlock() - a.Source().FreeCount()
}

func TestC1WriteReadRoundTrip(t *testing.T) {
	a, _ := newC1(t, 1024)
	f2, err := a.Create("alice", "/doc")
	if err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(1).Bytes(500)
	if err := a.Write(context.Background(), "/doc", f2, msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := a.Read("/doc", f2, got, 0); err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("content mismatch")
	}
	if err := a.Close("/doc", f2); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify persistence.
	f, err := a.Open("alice", "/doc")
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(msg))
	if _, err := f.ReadAt(got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("content lost across close/open")
	}
}

func TestC1UpdatesRelocateAndPreserveContent(t *testing.T) {
	ctx := context.Background()
	a, _ := newC1(t, 1024)
	f, err := a.Create("alice", "/data")
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(2)
	content := rng.Bytes(10 * a.Vol().PayloadSize())
	if err := a.Write(ctx, "/data", f, content, 0); err != nil {
		t.Fatal(err)
	}
	locsBefore := f.BlockLocs()

	// Many single-block rewrites: blocks must move around.
	moved := 0
	for round := 0; round < 20; round++ {
		li := rng.Intn(10)
		chunk := rng.Bytes(a.Vol().PayloadSize())
		copy(content[li*a.Vol().PayloadSize():], chunk)
		if err := a.Write(ctx, "/data", f, chunk, uint64(li*a.Vol().PayloadSize())); err != nil {
			t.Fatal(err)
		}
	}
	locsAfter := f.BlockLocs()
	for i := range locsBefore {
		if locsBefore[i] != locsAfter[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no block relocated across 20 updates")
	}
	got := make([]byte, len(content))
	if _, err := a.Read("/data", f, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("relocating updates corrupted content")
	}
	st := a.Stats()
	if st.Relocations == 0 || st.DataUpdates == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
}

func TestC1DummyUpdatesPreserveAllContent(t *testing.T) {
	a, _ := newC1(t, 512)
	f, err := a.Create("alice", "/f")
	if err != nil {
		t.Fatal(err)
	}
	content := prng.NewFromUint64(3).Bytes(8 * a.Vol().PayloadSize())
	if err := a.Write(context.Background(), "/f", f, content, 0); err != nil {
		t.Fatal(err)
	}
	// Hammer the volume with dummy updates, including on data blocks.
	for i := 0; i < 2000; i++ {
		if _, err := a.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(content))
	if _, err := a.Read("/f", f, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("dummy updates corrupted data (integrity objective violated)")
	}
	if a.Stats().DummyUpdates != 2000 {
		t.Fatalf("dummy counter %d", a.Stats().DummyUpdates)
	}
}

func TestC1ExpectedOverheadMatchesND(t *testing.T) {
	ctx := context.Background()
	// §4.1.5: E[iterations per update] = N/D. Fill to 50% → E ≈ 2.
	// Utilization is raised the way the paper's own simulation does:
	// marking random blocks as data in the bitmap.
	a, _ := newC1(t, 2050)
	f, err := a.Create("alice", "/fill")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 20*a.Vol().PayloadSize())
	if err := a.Write(ctx, "/fill", f, data, 0); err != nil {
		t.Fatal(err)
	}
	target := (a.Vol().NumBlocks() - 1) / 2
	for usedBlocks(a) < target {
		if _, err := a.Source().AcquireRandom(); err != nil {
			t.Fatal(err)
		}
	}
	used := usedBlocks(a)
	n := a.Vol().NumBlocks() - 1
	d := n - used
	want := float64(n) / float64(d)

	a.ResetStats()
	chunk := make([]byte, a.Vol().PayloadSize())
	rng := prng.NewFromUint64(5)
	for i := 0; i < 1500; i++ {
		off := uint64(rng.Intn(20)) * uint64(a.Vol().PayloadSize())
		if err := a.Write(ctx, "/fill", f, chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Stats().ExpectedOverhead()
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("measured E=%.3f, analytic N/D=%.3f (util=%.2f)", got, want, float64(used)/float64(n))
	}
}

func TestC1UpdateStreamUniform(t *testing.T) {
	ctx := context.Background()
	// Security core: the set of blocks written during data updates
	// must be uniform over the steg space (Definition 1 / the §4.1.4
	// proof). Chi-square over 16 bins.
	a, col := newC1(t, 2048)
	f, err := a.Create("alice", "/u")
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 40*a.Vol().PayloadSize())
	if err := a.Write(ctx, "/u", f, content, 0); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	rng := prng.NewFromUint64(7)
	chunk := make([]byte, a.Vol().PayloadSize())
	for i := 0; i < 3000; i++ {
		off := uint64(rng.Intn(40)) * uint64(a.Vol().PayloadSize())
		if err := a.Write(ctx, "/u", f, chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	var writes []uint64
	for _, e := range col.Events() {
		if e.Op == blockdev.OpWrite && e.Block >= a.Vol().FirstDataBlock() {
			writes = append(writes, e.Block-a.Vol().FirstDataBlock())
		}
	}
	span := a.Vol().NumBlocks() - a.Vol().FirstDataBlock()
	hist := stats.Histogram(writes, span, 16)
	_, p, err := stats.ChiSquareUniform(hist)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("update write stream not uniform: p=%v hist=%v", p, hist)
	}
}

func TestC1SecurityDefinition1(t *testing.T) {
	ctx := context.Background()
	// P(X|Y) vs P(X|∅): the write-location distribution under a real
	// workload must be indistinguishable from dummy-only traffic
	// (two-sample chi-square).
	a, col := newC1(t, 2048)
	f, err := a.Create("alice", "/w")
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64*a.Vol().PayloadSize())
	if err := a.Write(ctx, "/w", f, content, 0); err != nil {
		t.Fatal(err)
	}

	collectWrites := func() []uint64 {
		var out []uint64
		for _, e := range col.Events() {
			if e.Op == blockdev.OpWrite {
				out = append(out, e.Block)
			}
		}
		return out
	}

	// Sample 1: pure dummy traffic.
	col.Reset()
	for i := 0; i < 4000; i++ {
		if _, err := a.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	dummyWrites := collectWrites()

	// Sample 2: a pathological workload — the user hammers the same
	// logical block (maximum regularity for the attacker to find).
	col.Reset()
	chunk := make([]byte, a.Vol().PayloadSize())
	for i := 0; i < 2000; i++ {
		if err := a.Write(ctx, "/w", f, chunk, 0); err != nil {
			t.Fatal(err)
		}
	}
	dataWrites := collectWrites()

	n := a.Vol().NumBlocks()
	h1 := stats.Histogram(dummyWrites, n, 16)
	h2 := stats.Histogram(dataWrites, n, 16)
	_, p, err := stats.ChiSquareTwoSample(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("workload distinguishable from dummy traffic: p=%v\nh1=%v\nh2=%v", p, h1, h2)
	}
}

func TestC1StatePersistence(t *testing.T) {
	a, _ := newC1(t, 512)
	f, err := a.Create("alice", "/persist")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("remember me")
	if err := a.Write(context.Background(), "/persist", f, msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Close("/persist", f); err != nil {
		t.Fatal(err)
	}
	state, err := a.State()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": new agent, same secret, restore bitmap.
	b, err := NewNonVolatile(a.Vol(), []byte("agent-secret"), prng.NewFromUint64(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if usedBlocks(b) != usedBlocks(a) {
		t.Fatal("bitmap lost across restart")
	}
	f2, err := b.Open("alice", "/persist")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := b.Read("/persist", f2, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("content lost across restart")
	}
	// Restoring a wrong-size state must fail.
	if err := b.LoadState(state[:8]); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

func TestC1NoDummySpace(t *testing.T) {
	a, _ := newC1(t, 64)
	f, err := a.Create("alice", "/x")
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the space.
	for {
		if _, err := a.Source().AcquireRandom(); err != nil {
			break
		}
	}
	err = a.Write(context.Background(), "/x", f, []byte("no room"), 0)
	if !errors.Is(err, ErrNoDummySpace) && !errors.Is(err, stegfs.ErrVolumeFull) {
		t.Fatalf("full volume update: %v", err)
	}
}

func TestC1QuickArbitraryWritePattern(t *testing.T) {
	a, _ := newC1(t, 2048)
	f, err := a.Create("alice", "/q")
	if err != nil {
		t.Fatal(err)
	}
	mirror := []byte{}
	check := func(seed uint64, offRaw uint16, nRaw uint16) bool {
		off := uint64(offRaw) % 3000
		n := int(nRaw)%400 + 1
		chunk := prng.NewFromUint64(seed).Bytes(n)
		if err := a.Write(context.Background(), "/q", f, chunk, off); err != nil {
			return false
		}
		if int(off)+n > len(mirror) {
			grown := make([]byte, int(off)+n)
			copy(grown, mirror)
			mirror = grown
		}
		copy(mirror[off:], chunk)
		got := make([]byte, len(mirror))
		if _, err := a.Read("/q", f, got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, mirror)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Construction 2 ---------------------------------------------------

func newC2(t *testing.T, nBlocks uint64) (*VolatileAgent, *blockdev.Collector) {
	t.Helper()
	vol, col := newTracedVolume(t, nBlocks)
	return NewVolatile(vol, prng.NewFromUint64(21)), col
}

func TestC2SessionLifecycle(t *testing.T) {
	ctx := context.Background()
	a, _ := newC2(t, 2048)
	s, err := a.Login("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Login("alice", "pw-alice"); err == nil {
		t.Fatal("double login accepted")
	}
	if _, err := s.CreateDummy("/dummy0", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/real"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(4).Bytes(5 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/real", msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s.Read("/real", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("content mismatch")
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if a.KnownBlocks() != 0 {
		t.Fatalf("agent retains %d blocks after logout (volatility violated)", a.KnownBlocks())
	}
	if err := a.Logout(ctx, "alice"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("double logout: %v", err)
	}

	// Second session: disclose and read back.
	s2, err := a.Login("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Disclose("/dummy0"); err != nil {
		t.Fatal(err)
	}
	f, err := s2.Disclose("/real")
	if err != nil {
		t.Fatal(err)
	}
	if f.IsDummy() {
		t.Fatal("real file classified dummy")
	}
	got2 := make([]byte, len(msg))
	if _, err := s2.Read("/real", got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("content lost across sessions")
	}
}

// TestC2SessionRetainedPastLogout holds a *Session past its logout:
// it must read nothing the user disclosed and derive no key from the
// erased master — and the device must see nothing on its behalf.
func TestC2SessionRetainedPastLogout(t *testing.T) {
	ctx := context.Background()
	a, col := newC2(t, 2048)
	s, err := a.Login("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/cover", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/real"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "/real", []byte("disclosed plaintext"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	if _, err := s.Read("/real", make([]byte, 8), 0); !errors.Is(err, ErrNotDisclosed) {
		t.Fatalf("read after logout: want ErrNotDisclosed, got %v", err)
	}
	if _, err := s.Create("/new"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("create after logout: want ErrUnknownUser, got %v", err)
	}
	if _, err := s.CreateDummy("/new-cover", 4); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("createdummy after logout: want ErrUnknownUser, got %v", err)
	}
	if _, err := s.Disclose("/real"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("disclose after logout: want ErrUnknownUser, got %v", err)
	}
	if files := s.Files(); len(files) != 0 {
		t.Fatalf("files after logout: %v", files)
	}
	for _, e := range col.Events() {
		if e.Op == blockdev.OpWrite {
			t.Fatalf("the device saw a write of block %d after logout", e.Block)
		}
	}
}

func TestC2RequiresDummyDisclosure(t *testing.T) {
	a, _ := newC2(t, 1024)
	s, err := a.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/only-real"); err != nil {
		t.Fatal(err)
	}
	err = s.Write(context.Background(), "/only-real", make([]byte, 300), 0)
	if !errors.Is(err, ErrNoDummySpace) {
		t.Fatalf("write without dummy space: %v", err)
	}
}

func TestC2UpdatesStayWithinDisclosedBlocks(t *testing.T) {
	ctx := context.Background()
	// §4.2.2: the agent can only touch blocks of files disclosed in
	// the current session. Set up two users; after Bob logs out, only
	// Alice's blocks may appear in the trace.
	a, col := newC2(t, 4096)

	bob, err := a.Login("bob", "pw-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateDummy("/b-dummy", 180); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Create("/b-file"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Write(ctx, "/b-file", make([]byte, 10*a.Vol().PayloadSize()), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "bob"); err != nil {
		t.Fatal(err)
	}

	alice, err := a.Login("alice", "pw-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.CreateDummy("/a-dummy", 180); err != nil {
		t.Fatal(err)
	}
	fa, err := alice.Create("/a-file")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Write(ctx, "/a-file", make([]byte, 10*a.Vol().PayloadSize()), 0); err != nil {
		t.Fatal(err)
	}
	_ = fa

	// Steady state: capture the disclosed set, then update + dummy.
	disclosed := map[uint64]bool{}
	a.mu.Lock()
	for _, e := range a.list {
		disclosed[e.loc] = true
	}
	a.mu.Unlock()

	col.Reset()
	chunk := make([]byte, a.Vol().PayloadSize())
	rng := prng.NewFromUint64(8)
	for i := 0; i < 300; i++ {
		off := uint64(rng.Intn(10)) * uint64(a.Vol().PayloadSize())
		if err := alice.Write(ctx, "/a-file", chunk, off); err != nil {
			t.Fatal(err)
		}
		if _, err := a.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range col.Events() {
		if !disclosed[e.Block] {
			t.Fatalf("agent touched undisclosed block %d (%s)", e.Block, e.Op)
		}
	}
}

func TestC2SwapKeepsDummyFileConsistent(t *testing.T) {
	ctx := context.Background()
	a, _ := newC2(t, 2048)
	s, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	df, err := s.CreateDummy("/d", 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	content := prng.NewFromUint64(5).Bytes(20 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/f", content, 0); err != nil {
		t.Fatal(err)
	}
	nDummy := df.NumBlocks()
	chunk := make([]byte, a.Vol().PayloadSize())
	rng := prng.NewFromUint64(6)
	for i := 0; i < 500; i++ {
		off := uint64(rng.Intn(20)) * uint64(a.Vol().PayloadSize())
		if err := s.Write(ctx, "/f", chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	// Relocation swaps preserve the dummy file's block count and the
	// agent's total dummy count.
	if df.NumBlocks() != nDummy {
		t.Fatalf("dummy file block count drifted: %d -> %d", nDummy, df.NumBlocks())
	}
	// No block may be owned twice.
	ownedOnce := map[uint64]int{}
	for _, loc := range df.BlockLocs() {
		ownedOnce[loc]++
	}
	f2, _ := s.Disclose("/f")
	for _, loc := range f2.BlockLocs() {
		ownedOnce[loc]++
	}
	for loc, c := range ownedOnce {
		if c > 1 {
			t.Fatalf("block %d owned by both files after swaps", loc)
		}
	}
	// Logout persists the dummy file's map; a fresh session must load
	// a consistent file. Note that saving the real file's block map at
	// logout may consume a few dummy blocks for pointer blocks, so the
	// reference count is taken after logout from the still-visible
	// handle.
	if err := a.Logout(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	nFinal := df.NumBlocks()
	s2, _ := a.Login("u", "pw")
	df2, err := s2.Disclose("/d")
	if err != nil {
		t.Fatal(err)
	}
	if df2.NumBlocks() != nFinal {
		t.Fatalf("dummy map lost across logout: %d != %d", df2.NumBlocks(), nFinal)
	}
	if _, err := s2.Disclose("/f"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if _, err := s2.Read("/f", got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // the loop overwrote every block with chunk
		copy(content[i*a.Vol().PayloadSize():], chunk)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content inconsistent after swap-heavy session")
	}
}

func TestC2PlausibleDeniability(t *testing.T) {
	ctx := context.Background()
	// A coerced user can disclose a dummy file, or a real file under a
	// wrong content key, and the agent/attacker cannot tell it apart
	// from a genuine dummy.
	a, _ := newC2(t, 2048)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/cover", 50); err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("/secret")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("real secret data")
	if err := s.Write(ctx, "/secret", secret, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	_ = f

	// Under coercion, Alice reveals only the dummy file's FAK.
	s2, _ := a.Login("alice", "pw")
	cover, err := s2.Disclose("/cover")
	if err != nil {
		t.Fatal(err)
	}
	if !cover.IsDummy() {
		t.Fatal("cover file should be a dummy")
	}
	// The header decodes, the content is noise — exactly like a real
	// file whose content key is withheld. Nothing distinguishes them.
	payload := make([]byte, a.Vol().PayloadSize())
	if err := cover.ReadBlockAt(0, payload); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, secret) {
		t.Fatal("dummy leaked real data?!")
	}
}

func TestC2GrowthConsumesDummyBlocks(t *testing.T) {
	a, _ := newC2(t, 1024)
	s, _ := a.Login("u", "pw")
	if _, err := s.CreateDummy("/d", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	before := a.DummyBlocks()
	if err := s.Write(context.Background(), "/f", make([]byte, 10*a.Vol().PayloadSize()), 0); err != nil {
		t.Fatal(err)
	}
	after := a.DummyBlocks()
	if after >= before {
		t.Fatalf("growth did not consume dummy blocks: %d -> %d", before, after)
	}
	// Deleting the file returns its blocks to the dummy pool.
	if err := s.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if a.DummyBlocks() <= after {
		t.Fatal("delete did not return blocks to dummy pool")
	}
}

func TestC2SecurityDefinition1(t *testing.T) {
	ctx := context.Background()
	// Within the disclosed region, workload traffic must match dummy
	// traffic (Definition 1 restricted to the visible space).
	a, col := newC2(t, 2048)
	s, _ := a.Login("u", "pw")
	if _, err := s.CreateDummy("/d", 150); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "/f", make([]byte, 60*a.Vol().PayloadSize()), 0); err != nil {
		t.Fatal(err)
	}

	collect := func() []uint64 {
		var out []uint64
		for _, e := range col.Events() {
			if e.Op == blockdev.OpWrite {
				out = append(out, e.Block)
			}
		}
		return out
	}
	col.Reset()
	for i := 0; i < 4000; i++ {
		if _, err := a.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	dummyW := collect()

	col.Reset()
	chunk := make([]byte, a.Vol().PayloadSize())
	for i := 0; i < 1500; i++ {
		if err := s.Write(ctx, "/f", chunk, 0); err != nil { // pathological: same block
			t.Fatal(err)
		}
	}
	dataW := collect()

	n := a.Vol().NumBlocks()
	h1 := stats.Histogram(dummyW, n, 12)
	h2 := stats.Histogram(dataW, n, 12)
	_, p, err := stats.ChiSquareTwoSample(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("volatile workload distinguishable: p=%v\nh1=%v\nh2=%v", p, h1, h2)
	}
}

func TestC2ReadAfterManySwapsAcrossUsers(t *testing.T) {
	ctx := context.Background()
	// Two concurrent sessions sharing the agent: swaps may cross user
	// boundaries (a's data may land in b's dummy blocks). Content of
	// both users must survive.
	a, _ := newC2(t, 4096)
	sa, _ := a.Login("a", "pa")
	sb, _ := a.Login("b", "pb")
	if _, err := sa.CreateDummy("/da", 150); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.CreateDummy("/db", 150); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Create("/fa"); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Create("/fb"); err != nil {
		t.Fatal(err)
	}
	ps := a.Vol().PayloadSize()
	ca := prng.NewFromUint64(31).Bytes(15 * ps)
	cb := prng.NewFromUint64(32).Bytes(15 * ps)
	if err := sa.Write(ctx, "/fa", ca, 0); err != nil {
		t.Fatal(err)
	}
	if err := sb.Write(ctx, "/fb", cb, 0); err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(33)
	for i := 0; i < 400; i++ {
		li := rng.Intn(15)
		chunk := rng.Bytes(ps)
		if i%2 == 0 {
			copy(ca[li*ps:], chunk)
			if err := sa.Write(ctx, "/fa", chunk, uint64(li*ps)); err != nil {
				t.Fatal(err)
			}
		} else {
			copy(cb[li*ps:], chunk)
			if err := sb.Write(ctx, "/fb", chunk, uint64(li*ps)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ga := make([]byte, len(ca))
	gb := make([]byte, len(cb))
	if _, err := sa.Read("/fa", ga, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Read("/fb", gb, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, ca) || !bytes.Equal(gb, cb) {
		t.Fatal("cross-user swaps corrupted content")
	}
	// Logout both; a fresh pair of sessions still reads both files.
	a.Logout(ctx, "a")
	a.Logout(ctx, "b")
	sa2, _ := a.Login("a", "pa")
	if _, err := sa2.Disclose("/fa"); err != nil {
		t.Fatal(err)
	}
	ga2 := make([]byte, len(ca))
	if _, err := sa2.Read("/fa", ga2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga2, ca) {
		t.Fatal("content lost after cross-user session")
	}
}

func TestC2WriteUndisclosedFails(t *testing.T) {
	a, _ := newC2(t, 512)
	s, _ := a.Login("u", "pw")
	if err := s.Write(context.Background(), "/nope", []byte("x"), 0); !errors.Is(err, ErrNotDisclosed) {
		t.Fatalf("write undisclosed: %v", err)
	}
	if _, err := s.Read("/nope", make([]byte, 1), 0); !errors.Is(err, ErrNotDisclosed) {
		t.Fatalf("read undisclosed: %v", err)
	}
	if err := s.Delete("/nope"); !errors.Is(err, ErrNotDisclosed) {
		t.Fatalf("delete undisclosed: %v", err)
	}
	if _, err := a.DummyUpdateBurst(1); !errors.Is(err, ErrNoDummySpace) {
		t.Fatalf("dummy update with empty registry: %v", err)
	}
}

// TestC2DummySaveConservesItsBlocks saves a cover whose map has pointer
// blocks, with the journal off and on, twice: once in the session that
// created it, once after a fresh disclosure. The save leaves the cover
// clean — saving it again writes nothing — and loses no block: after a
// logout, a login and a fresh disclosure, every block that was in the
// cover's map or pointer set before the save is in a saved map, no block
// is in two, and fsck is clean. The cover is the only dummy file, so
// its fresh pointer blocks come out of its own map and it owns exactly
// what it owned before.
func TestC2DummySaveConservesItsBlocks(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(map[bool]string{false: "no-journal", true: "journal"}[journaled], func(t *testing.T) {
			ctx := context.Background()
			fd := blockdev.NewFault(blockdev.NewMem(256, 1024))
			vol, err := stegfs.Format(fd, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("dummy-save"), JournalBlocks: 32})
			if err != nil {
				t.Fatal(err)
			}
			ps := uint64(vol.PayloadSize())
			a := NewVolatile(vol, prng.NewFromUint64(7))
			if journaled {
				if err := a.EnableJournal(JournalKey(vol, "admin")); err != nil {
					t.Fatal(err)
				}
			}
			s, err := a.Login("u", "pw")
			if err != nil {
				t.Fatal(err)
			}
			cover, err := s.CreateDummy("/cover", 120)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Create("/f"); err != nil {
				t.Fatal(err)
			}
			for round, blocks := range []uint64{20, 36} {
				// The file's growth and relocations draw from the cover and
				// dirty it.
				if err := s.Write(ctx, "/f", bytes.Repeat([]byte{byte(round + 1)}, int(blocks*ps)), 0); err != nil {
					t.Fatal(err)
				}
				if err := s.Save(ctx, "/f"); err != nil {
					t.Fatal(err)
				}
				if len(cover.IndirectLocs()) == 0 {
					t.Fatal("the cover has no pointer blocks")
				}
				before := cover.Owned()
				if err := s.Save(ctx, "/cover"); err != nil {
					t.Fatal(err)
				}
				writes := fd.Writes()
				if err := s.Save(ctx, "/cover"); err != nil || fd.Writes() != writes {
					t.Fatalf("round %d: a second save of the cover wrote %d blocks (%v): its save left it dirty", round, fd.Writes()-writes, err)
				}
				if err := a.Logout(ctx, "u"); err != nil {
					t.Fatal(err)
				}
				if s, err = a.Login("u", "pw"); err != nil {
					t.Fatal(err)
				}
				if cover, err = s.Disclose("/cover"); err != nil {
					t.Fatal(err)
				}
				if cover.Size() != cover.NumBlocks()*ps {
					t.Fatalf("round %d: the saved cover reads %d bytes for %d blocks", round, cover.Size(), cover.NumBlocks())
				}
				f, err := s.Disclose("/f")
				if err != nil {
					t.Fatal(err)
				}
				saved := map[uint64]int{}
				for _, loc := range append(cover.Owned(), f.Owned()...) {
					saved[loc]++
				}
				for loc, n := range saved {
					if n > 1 {
						t.Fatalf("round %d: block %d is in %d saved maps", round, loc, n)
					}
				}
				for _, loc := range before {
					if saved[loc] == 0 {
						t.Fatalf("round %d: block %d of the cover is in no saved map after its save", round, loc)
					}
				}
				if len(cover.Owned()) != len(before) {
					t.Fatalf("round %d: the cover owned %d blocks before its save and %d after", round, len(before), len(cover.Owned()))
				}
				report, err := stegfs.Check(vol, map[string][]string{"pw": {"/cover", "/f"}})
				if err != nil || !report.Ok() {
					t.Fatalf("round %d: fsck: %v, err=%v", round, report, err)
				}
			}
			if err := a.Logout(ctx, "u"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
