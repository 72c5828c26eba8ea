package extsort

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
	"steghide/internal/prng"
	"steghide/internal/race"
)

// keyFromPrefix reads the sort key from the first 8 bytes of a block.
func keyFromPrefix(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// prefixCodec is the identity codec: a record is a copy of its block
// and its key the block's first 8 bytes.
type prefixCodec struct{}

func (prefixCodec) Open(_ uint64, _ bool, raws, recs [][]byte, keys []uint64) error {
	for i, raw := range raws {
		copy(recs[i], raw)
		keys[i] = keyFromPrefix(raw)
	}
	return nil
}

func (prefixCodec) Seal(_ uint64, _ bool, recs, raws [][]byte) error {
	for i, rec := range recs {
		copy(raws[i], rec)
	}
	return nil
}

func newWindow(dev blockdev.Device, memBlocks int) *Window {
	return &Window{
		Raws: blockdev.AllocBlocks(memBlocks, dev.BlockSize()),
		Recs: blockdev.AllocBlocks(memBlocks, dev.BlockSize()),
	}
}

// sortByPrefix sorts src by block prefix in a fresh window of
// memBlocks blocks.
func sortByPrefix(dev blockdev.Device, src, scratch Region, memBlocks int) error {
	return Sort(dev, src, scratch, prefixCodec{}, newWindow(dev, memBlocks))
}

// fillRandom writes blocks with random keys into region src and
// returns the keys in storage order.
func fillRandom(t *testing.T, dev blockdev.Device, src Region, seed uint64) []uint64 {
	t.Helper()
	rng := prng.NewFromUint64(seed)
	keys := make([]uint64, src.Len)
	buf := make([]byte, dev.BlockSize())
	for i := uint64(0); i < src.Len; i++ {
		k := rng.Uint64()
		keys[i] = k
		rng.Read(buf)
		binary.BigEndian.PutUint64(buf, k)
		if err := dev.WriteBlock(src.Start+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func verifySorted(t *testing.T, dev blockdev.Device, src Region, wantKeys []uint64) {
	t.Helper()
	buf := make([]byte, dev.BlockSize())
	var last uint64
	seen := make(map[uint64]int)
	for i := uint64(0); i < src.Len; i++ {
		if err := dev.ReadBlock(src.Start+i, buf); err != nil {
			t.Fatal(err)
		}
		k := keyFromPrefix(buf)
		if i > 0 && k < last {
			t.Fatalf("not sorted at offset %d: %d < %d", i, k, last)
		}
		last = k
		seen[k]++
	}
	for _, k := range wantKeys {
		seen[k]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("multiset mismatch for key %d (delta %d)", k, c)
		}
	}
}

func TestSortSizesAndMemory(t *testing.T) {
	for _, tc := range []struct {
		n   uint64
		mem int
	}{
		{1, 2}, {2, 2}, {3, 2}, {16, 2}, {17, 2},
		{64, 4}, {100, 7}, {128, 8}, {129, 8}, {1000, 16}, {1024, 3},
	} {
		dev := blockdev.NewMem(64, 2100)
		src := Region{Start: 0, Len: tc.n}
		scratch := Region{Start: 1050, Len: tc.n}
		keys := fillRandom(t, dev, src, tc.n*31+uint64(tc.mem))
		if err := sortByPrefix(dev, src, scratch, tc.mem); err != nil {
			t.Fatalf("n=%d mem=%d: %v", tc.n, tc.mem, err)
		}
		verifySorted(t, dev, src, keys)
	}
}

func TestSortAlreadySortedAndReverse(t *testing.T) {
	dev := blockdev.NewMem(64, 300)
	src := Region{Start: 0, Len: 100}
	scratch := Region{Start: 100, Len: 100}
	buf := make([]byte, 64)
	var keys []uint64
	for i := uint64(0); i < 100; i++ {
		k := 100 - i // reverse order
		binary.BigEndian.PutUint64(buf, k)
		dev.WriteBlock(src.Start+i, buf)
		keys = append(keys, k)
	}
	if err := sortByPrefix(dev, src, scratch, 4); err != nil {
		t.Fatal(err)
	}
	verifySorted(t, dev, src, keys)
	// Sorting again (already sorted) must be a no-op result-wise.
	if err := sortByPrefix(dev, src, scratch, 4); err != nil {
		t.Fatal(err)
	}
	verifySorted(t, dev, src, keys)
}

func TestSortDuplicateKeys(t *testing.T) {
	dev := blockdev.NewMem(64, 200)
	src := Region{Start: 0, Len: 64}
	scratch := Region{Start: 100, Len: 64}
	buf := make([]byte, 64)
	var keys []uint64
	rng := prng.NewFromUint64(5)
	for i := uint64(0); i < 64; i++ {
		k := uint64(rng.Intn(4)) // heavy duplication
		binary.BigEndian.PutUint64(buf, k)
		buf[63] = byte(i)
		dev.WriteBlock(src.Start+i, buf)
		keys = append(keys, k)
	}
	if err := sortByPrefix(dev, src, scratch, 3); err != nil {
		t.Fatal(err)
	}
	verifySorted(t, dev, src, keys)
	// Every payload byte must survive: check the multiset of tags.
	seen := map[byte]bool{}
	for i := uint64(0); i < 64; i++ {
		dev.ReadBlock(src.Start+i, buf)
		if seen[buf[63]] {
			t.Fatalf("payload %d duplicated", buf[63])
		}
		seen[buf[63]] = true
	}
}

func TestSortErrors(t *testing.T) {
	dev := blockdev.NewMem(64, 100)
	src := Region{Start: 0, Len: 40}
	if err := sortByPrefix(dev, src, Region{Start: 50, Len: 40}, 1); err == nil {
		t.Fatal("memBlocks=1 accepted")
	}
	if err := sortByPrefix(dev, src, Region{Start: 50, Len: 39}, 4); err == nil {
		t.Fatal("small scratch accepted")
	}
	if err := sortByPrefix(dev, src, Region{Start: 30, Len: 40}, 4); err == nil {
		t.Fatal("overlapping scratch accepted")
	}
	if err := sortByPrefix(dev, Region{Start: 80, Len: 40}, Region{Start: 0, Len: 40}, 4); err == nil {
		t.Fatal("src beyond device accepted")
	}
	if err := sortByPrefix(dev, Region{Start: 0, Len: 0}, Region{}, 4); err != nil {
		t.Fatalf("empty sort should succeed: %v", err)
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Start: 10, Len: 5}
	if r.End() != 15 || !r.Contains(10) || !r.Contains(14) || r.Contains(15) || r.Contains(9) {
		t.Fatal("Region geometry broken")
	}
	if !r.Overlaps(Region{Start: 14, Len: 1}) || r.Overlaps(Region{Start: 15, Len: 5}) {
		t.Fatal("Overlaps broken")
	}
}

func TestSortIOPatternMostlySequential(t *testing.T) {
	// The point of external merge sort in the paper (Fig. 12b) is that
	// its I/O is mostly sequential. Verify ≥50% sequential accesses on
	// the simulated disk for a multi-pass sort.
	// Memory is 1/32 of the data — a realistic external-sort ratio
	// (the paper's is 8 MB buffer vs 256 MB+ levels).
	const n = 1024
	base := blockdev.NewMem(64, 3*n)
	disk := diskmodel.MustNew(diskmodel.Params2004(3*n, 64))
	dev := blockdev.NewSim(base, disk)
	src := Region{Start: 0, Len: n}
	scratch := Region{Start: n, Len: n}
	keys := fillRandom(t, base, src, 77)
	disk.ResetStats()
	if err := sortByPrefix(dev, src, scratch, 32); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	frac := float64(st.Sequential) / float64(st.Accesses)
	if frac < 0.6 {
		t.Fatalf("only %.0f%% of sort I/O sequential (%d/%d)", frac*100, st.Sequential, st.Accesses)
	}
	verifySorted(t, base, src, keys)
}

func TestQuickSortMatchesInMemory(t *testing.T) {
	f := func(seed uint64, nRaw uint8, memRaw uint8) bool {
		n := uint64(nRaw)%200 + 1
		mem := int(memRaw)%10 + 2
		dev := blockdev.NewMem(32, 500)
		src := Region{Start: 0, Len: n}
		scratch := Region{Start: 250, Len: n}
		rng := prng.NewFromUint64(seed)
		keys := make([]uint64, n)
		buf := make([]byte, 32)
		for i := uint64(0); i < n; i++ {
			k := uint64(rng.Intn(50))
			keys[i] = k
			binary.BigEndian.PutUint64(buf, k)
			dev.WriteBlock(i, buf)
		}
		if err := sortByPrefix(dev, src, scratch, mem); err != nil {
			return false
		}
		// Compare against an in-memory sort of the key multiset.
		counts := map[uint64]int{}
		for _, k := range keys {
			counts[k]++
		}
		var last uint64
		for i := uint64(0); i < n; i++ {
			dev.ReadBlock(i, buf)
			k := keyFromPrefix(buf)
			if i > 0 && k < last {
				return false
			}
			last = k
			counts[k]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSort1024Blocks(b *testing.B) {
	dev := blockdev.NewMem(4096, 2200)
	src := Region{Start: 0, Len: 1024}
	scratch := Region{Start: 1100, Len: 1024}
	rng := prng.NewFromUint64(1)
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := uint64(0); j < src.Len; j++ {
			binary.BigEndian.PutUint64(buf, rng.Uint64())
			dev.WriteBlock(j, buf)
		}
		b.StartTimer()
		if err := sortByPrefix(dev, src, scratch, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// auditCodec checks the contract Sort promises its codec while doing
// prefixCodec's job: every block is opened exactly once per read and
// sealed exactly once per write, in whole batches that match the
// device call; input opens cover src exactly once; final seals cover
// src exactly once, in position order.
type auditCodec struct {
	t            *testing.T
	inputs       map[uint64]int
	nextFinal    uint64
	opens, seals uint64
}

func (a *auditCodec) Open(pos uint64, input bool, raws, recs [][]byte, keys []uint64) error {
	if len(raws) != len(recs) || len(raws) != len(keys) {
		a.t.Fatalf("Open batch shapes %d/%d/%d", len(raws), len(recs), len(keys))
	}
	a.opens += uint64(len(raws))
	if input {
		for i := range raws {
			a.inputs[pos+uint64(i)]++
		}
	}
	return prefixCodec{}.Open(pos, input, raws, recs, keys)
}

func (a *auditCodec) Seal(pos uint64, final bool, recs, raws [][]byte) error {
	if len(raws) != len(recs) {
		a.t.Fatalf("Seal batch shapes %d/%d", len(recs), len(raws))
	}
	a.seals += uint64(len(recs))
	if final {
		if pos != a.nextFinal {
			a.t.Fatalf("final seal at %d, want %d", pos, a.nextFinal)
		}
		a.nextFinal += uint64(len(recs))
	}
	return prefixCodec{}.Seal(pos, final, recs, raws)
}

func TestCodecContract(t *testing.T) {
	for _, tc := range []struct {
		n   uint64
		mem int
	}{{3, 4}, {24, 4}, {48, 4}, {100, 7}, {17, 2}, {1024, 32}} {
		base := blockdev.NewMem(64, 2200)
		col := &blockdev.Collector{}
		dev := blockdev.NewTraced(base, col)
		src := Region{Start: 5, Len: tc.n}
		scratch := Region{Start: 1100, Len: tc.n}
		keys := fillRandom(t, base, src, tc.n)
		a := &auditCodec{t: t, inputs: map[uint64]int{}, nextFinal: src.Start}
		if err := Sort(dev, src, scratch, a, newWindow(dev, tc.mem)); err != nil {
			t.Fatalf("n=%d mem=%d: %v", tc.n, tc.mem, err)
		}
		verifySorted(t, base, src, keys)
		var reads, writes uint64
		for _, ev := range col.Events() {
			if ev.Op == blockdev.OpWrite {
				writes += ev.Span()
			} else {
				reads += ev.Span()
			}
		}
		if a.opens != reads || a.seals != writes {
			t.Fatalf("n=%d mem=%d: %d opens for %d block reads, %d seals for %d block writes", tc.n, tc.mem, a.opens, reads, a.seals, writes)
		}
		if a.nextFinal != src.End() {
			t.Fatalf("n=%d mem=%d: final seals reached %d of [%d,%d)", tc.n, tc.mem, a.nextFinal, src.Start, src.End())
		}
		for pos := src.Start; pos < src.End(); pos++ {
			if a.inputs[pos] != 1 {
				t.Fatalf("n=%d mem=%d: block %d opened as input %d times", tc.n, tc.mem, pos, a.inputs[pos])
			}
		}
		if uint64(len(a.inputs)) != src.Len {
			t.Fatalf("n=%d mem=%d: input opens outside src", tc.n, tc.mem)
		}
	}
}

// TestSortReusesWindow pins the window contract: a second sort of the
// same geometry through the same window allocates nothing.
func TestSortReusesWindow(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dev := blockdev.NewMem(64, 300)
	src := Region{Start: 0, Len: 100}
	scratch := Region{Start: 150, Len: 100}
	fillRandom(t, dev, src, 9)
	w := newWindow(dev, 8)
	sortOnce := func() {
		if err := Sort(dev, src, scratch, prefixCodec{}, w); err != nil {
			t.Fatal(err)
		}
	}
	sortOnce()
	if allocs := testing.AllocsPerRun(10, sortOnce); allocs != 0 {
		t.Fatalf("steady-state Sort allocates %.0f times", allocs)
	}
}
