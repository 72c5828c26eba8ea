package oblivious

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// tapDev sits where the attacker does: while recording it keeps every
// contiguous batch the store issues — the call and a copy of the
// blocks moved — and it lets a test reach the medium between two
// calls.
type tapDev struct {
	blockdev.Device
	recording bool
	calls     []tapCall
	// afterWrite, if set, runs after each recorded write call has
	// reached the medium; n counts the recorded write calls from 0.
	afterWrite func(n int, c tapCall)
	writes     int
}

type tapCall struct {
	write  bool
	start  uint64
	blocks [][]byte
}

func (c tapCall) String() string {
	op := "R"
	if c.write {
		op = "W"
	}
	return fmt.Sprintf("%s %d %d", op, c.start, len(c.blocks))
}

func (d *tapDev) record(write bool, start uint64, bufs [][]byte) {
	if !d.recording {
		return
	}
	c := tapCall{write: write, start: start}
	for _, b := range bufs {
		c.blocks = append(c.blocks, bytes.Clone(b))
	}
	d.calls = append(d.calls, c)
	if write {
		if d.afterWrite != nil {
			d.afterWrite(d.writes, c)
		}
		d.writes++
	}
}

func (d *tapDev) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := d.Device.ReadBlocks(start, bufs); err != nil {
		return err
	}
	d.record(false, start, bufs)
	return nil
}

func (d *tapDev) WriteBlocks(start uint64, data [][]byte) error {
	if err := d.Device.WriteBlocks(start, data); err != nil {
		return err
	}
	d.record(true, start, data)
	return nil
}

// The scattered calls belong to probes; no shuffle issues them, so
// they pass through unrecorded.
func (d *tapDev) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return d.Device.ReadBlocksAt(idx, bufs)
}

func (d *tapDev) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return d.Device.WriteBlocksAt(idx, data)
}

// flipByte corrupts one ciphertext byte of block i on the medium.
func (d *tapDev) flipByte(t *testing.T, i uint64) {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	if err := blockdev.ReadBlock(d.Device, i, buf); err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := blockdev.WriteBlock(d.Device, i, buf); err != nil {
		t.Fatal(err)
	}
}

// tappedStore builds a (B, k) store over a tap and brings it, by a
// deterministic function of seed, to a state with real entries in
// levels 1 and 2: nput distinct blocks written, buffer flushed.
func tappedStore(t testing.TB, bufCap, levels int, seed uint64, nput int) (*Store, *tapDev) {
	t.Helper()
	d := &tapDev{Device: blockdev.NewMem(128, Footprint(bufCap, levels))}
	s, err := New(Config{
		Dev:          d,
		Key:          sealer.DeriveKey([]byte("k"), "reshuffle"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nput; i++ {
		if err := s.Put(BlockID{File: seed, Index: uint64(i)}, val(s, seed<<8+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := drainBuffer(s); err != nil {
		t.Fatal(err)
	}
	return s, d
}

// recordDump runs dump(i) under the tap and returns its calls.
func recordDump(t *testing.T, s *Store, d *tapDev, i int) []tapCall {
	t.Helper()
	d.recording, d.calls, d.writes = true, nil, 0
	if err := s.dump(i); err != nil {
		t.Fatal(err)
	}
	d.recording = false
	return d.calls
}

// recordCascade builds a (B, k) store over a tap, puts blocks i %
// distinct until one access before the end of period 3·2^m, and
// records the Put that ends it: the flush into level 1, then the
// cascade into level m+1, its sort and its refill.
func recordCascade(t *testing.T, bufCap, levels, m int, seed uint64, distinct int) []tapCall {
	t.Helper()
	s, d := tappedStore(t, bufCap, levels, seed, 0)
	end := cascadePeriod(m) * uint64(bufCap)
	putUntil(t, s, end-1, seed, distinct, nil)
	d.recording = true
	before := s.Stats().Dumps
	putUntil(t, s, end, seed, distinct, nil)
	d.recording = false
	if got := s.Stats().Dumps - before; got != 1 {
		t.Fatalf("(%d,%d) period %d: %d sorts, want the one cascade", bufCap, levels, cascadePeriod(m), got)
	}
	return d.calls
}

// dumpMerge is the merge geometry of a dump over n slots with a window
// of b blocks: the fan-in extsort merges its runs with and the number
// P of merge passes after run formation. Of the fan-ins from 2 to
// max(⌊√b⌋, min(b−16, 16)), the sort takes the smallest that merges
// the runs in the fewest passes.
func dumpMerge(n, b int) (fanIn, passes int) {
	passesAt := func(k int) int {
		p := 0
		for runs := (n + b - 1) / b; runs > 1; runs = (runs + k - 1) / k {
			p++
		}
		return p
	}
	sqrt := 1
	for (sqrt+1)*(sqrt+1) <= b {
		sqrt++
	}
	widest := max(2, sqrt, min(b-16, 16))
	for fanIn = 2; passesAt(fanIn) > passesAt(widest); fanIn++ {
	}
	return fanIn, passesAt(fanIn)
}

// mergePasses is P for a dump over n slots with a window of b blocks.
func mergePasses(n, b int) int {
	_, p := dumpMerge(n, b)
	return p
}

// dumpSealWidths is the slots per seal batch, in order, of a dump over
// n slots with a window of b blocks, where b leaves room for a batch
// of 16 beside one record per run cursor: one batch per run formed,
// then for each merge of each pass batches of 16 and a last one of
// what is left.
func dumpSealWidths(n, b int) []int {
	fanIn, _ := dumpMerge(n, b)
	var runs, widths []int
	for off := 0; off < n; off += b {
		runs = append(runs, min(b, n-off))
	}
	widths = append(widths, runs...)
	for len(runs) > 1 {
		var next []int
		for lo := 0; lo < len(runs); lo += fanIn {
			total := 0
			for _, r := range runs[lo:min(lo+fanIn, len(runs))] {
				total += r
			}
			for left := total; left > 0; left -= 16 {
				widths = append(widths, min(16, left))
			}
			next = append(next, total)
		}
		runs = next
	}
	return widths
}

// canonicalCalls is the part of a dump's call sequence that geometry
// alone fixes: every write in order, then the reads as a sorted list.
// The order in which a merge pulls the next chunk of its runs follows
// the shuffle keys — fresh PRF outputs, different for every seed — so
// where the reads fall between the writes is not a function of
// geometry, at this commit or at any earlier one; which chunks are
// read, and everything about the writes, is.
func canonicalCalls(calls []tapCall) []string {
	var writes, reads []tapCall
	for _, c := range calls {
		if c.write {
			writes = append(writes, c)
		} else {
			reads = append(reads, c)
		}
	}
	slices.SortFunc(reads, func(a, b tapCall) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(len(a.blocks), len(b.blocks)))
	})
	var out []string
	for _, c := range append(writes, reads...) {
		out = append(out, c.String())
	}
	return out
}

// TestDumpCallSequenceIsGeometry pins the attacker's view of a dump —
// the (op, start, count) of every device call — as a function of
// geometry: two stores that differ in seed, contents and occupancy
// make the same canonical sequence, and at B = 4, k = 3 it equals the
// one recorded from the commit before the record-form sort (testdata).
// The (32, 3) dumps merge 6 and 12 runs in one pass, with cursors that
// refill 2 and 1 blocks at a time: the fan-ins above ⌊√B⌋ that only a
// window with room for a seal batch takes. The cascade rows hold a
// cascade into an empty level to the same rule at (4, 4) and (8, 5):
// its sort, which skips most of level m+1, and its refill of levels
// 1..m.
func TestDumpCallSequenceIsGeometry(t *testing.T) {
	golden, err := os.ReadFile("testdata/dump_calls_b4k3.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, g := range []struct{ bufCap, putA, putB int }{{4, 3, 11}, {32, 24, 88}} {
		for lvl := 0; lvl < 2; lvl++ {
			sa, da := tappedStore(t, g.bufCap, 3, 1, g.putA)
			sb, db := tappedStore(t, g.bufCap, 3, 2, g.putB)
			a := canonicalCalls(recordDump(t, sa, da, lvl))
			b := canonicalCalls(recordDump(t, sb, db, lvl))
			if !slices.Equal(a, b) {
				t.Fatalf("(%d,3) dump(%d): call sequence depends on seed or contents", g.bufCap, lvl)
			}
			if g.bufCap == 4 {
				fmt.Fprintf(&got, "dump %d\n%s\n", lvl, strings.Join(a, "\n"))
			}
		}
	}
	if got.String() != string(golden) {
		t.Fatalf("call sequence differs from the recorded one; got:\n%s", got.String())
	}
	// Cascade rows: the Put that ends a period with m trailing zeros,
	// on two seeds and two contents — every block distinct, or three
	// blocks rewritten over and over.
	for _, g := range cascadeGeoms {
		for m := 1; m <= g.levels-2; m++ {
			capacity := g.bufCap << uint(g.levels-1)
			a := canonicalCalls(recordCascade(t, g.bufCap, g.levels, m, 1, capacity))
			b := canonicalCalls(recordCascade(t, g.bufCap, g.levels, m, 2, 3))
			if !slices.Equal(a, b) {
				t.Fatalf("(%d,%d) cascade(%d): call sequence depends on seed or contents:\n%v\n%v", g.bufCap, g.levels, m, a, b)
			}
		}
	}
}

// TestDumpWritesAreUnlinkable checks what re-encrypting on every pass
// is for: no block a dump writes shares its IV, or its first
// ciphertext block, with any block the dump read or wrote before it —
// so a slot cannot be followed from pass to pass by ciphertext.
func TestDumpWritesAreUnlinkable(t *testing.T) {
	unlinkable := func(what string, calls []tapCall) {
		type half [sealer.IVSize]byte
		seen := map[half]bool{}
		for n, c := range calls {
			for i, b := range c.blocks {
				iv, first := half(b[:sealer.IVSize]), half(b[sealer.IVSize:2*sealer.IVSize])
				if c.write && (seen[iv] || seen[first]) {
					t.Fatalf("%s call %d (%v): block %d repeats an IV or ciphertext block seen earlier", what, n, c, c.start+uint64(i))
				}
				seen[iv], seen[first] = true, true
			}
		}
	}
	for lvl := 0; lvl < 2; lvl++ {
		s, d := tappedStore(t, 4, 3, 7, 9)
		unlinkable(fmt.Sprintf("dump(%d)", lvl), recordDump(t, s, d, lvl))
	}
	// A cascade's sort and refill, with the flush before them.
	for _, g := range cascadeGeoms {
		for m := 1; m <= g.levels-2; m++ {
			unlinkable(fmt.Sprintf("(%d,%d) cascade(%d)", g.bufCap, g.levels, m), recordCascade(t, g.bufCap, g.levels, m, 7, 5))
		}
	}
}

// TestSlotNoncesNeverRepeat records every IV the store writes, from
// format through a seeded put/get mix that rewrites the last level,
// and checks that none repeats. The IV is the slot tag's GMAC nonce;
// TestDumpWritesAreUnlinkable checks the same only within one dump.
func TestSlotNoncesNeverRepeat(t *testing.T) {
	const bufCap, levels = 4, 3
	d := &tapDev{Device: blockdev.NewMem(128, Footprint(bufCap, levels)), recording: true}
	s, err := New(Config{
		Dev:          d,
		Key:          sealer.DeriveKey([]byte("k"), "nonces"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(32)
	for op := 0; op < 400; op++ {
		id := BlockID{File: 1, Index: rng.Uint64n(uint64(s.Capacity()))}
		if rng.Intn(3) == 0 {
			err = s.Put(id, val(s, uint64(op)))
		} else {
			_, _, err = s.Get(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Only dump(k−2) rewrites the last level, and the cascade runs every
	// lower dump before it.
	if epoch := s.levels[levels-1].epoch; epoch < 2 {
		t.Fatalf("the last level was never dumped into (epoch %d)", epoch)
	}
	seen := map[[sealer.IVSize]byte]bool{}
	for n, c := range d.calls {
		if !c.write {
			continue
		}
		for i, b := range c.blocks {
			iv := [sealer.IVSize]byte(b[:sealer.IVSize])
			if seen[iv] {
				t.Fatalf("write call %d (%v): block %d reuses an IV", n, c, c.start+uint64(i))
			}
			seen[iv] = true
		}
	}
	t.Logf("%d slot writes over %d flushes and %d dumps, every IV distinct", len(seen), s.Stats().Flushes, s.Stats().Dumps)
}

// TestDumpCryptoBudget counts the cipher and tag work of a dump with P
// merge passes: every slot read is opened and its tag checked (opens
// equal blocks read), every slot written is sealed in a batch under a
// fresh IV (seals equal blocks written), and each open and each seal
// takes one mask. A payload is hashed only where its bytes may have
// changed: at each open, and when run formation rewrites its header;
// a merge pass carries the hash from open to seal. Per slot that is at
// most 1+P opens, 1+P seals and 2+2P masks, and exactly 2+P hashes. A
// flush pays one open, one seal, two masks and two hashes (the open's
// and the put's). With a window of 32 blocks every merge seals its
// output 16 slots per batch, the sixteen-lane cipher group, bar each
// merge's last batch.
//
// A cascade into level m+1 sorts n = 2^(m+1)·B slots and refills the
// r = n − 2B slots of levels 1..m: exactly (1+P)·n opens, (1+P)·n + r
// seals, as many masks as both, and (2+P)·n + r hashes. A refill slot
// is built and sealed once (one hash, one mask) and never opened; the
// refill seals B slots per batch.
func TestDumpCryptoBudget(t *testing.T) {
	for _, g := range []struct{ bufCap, levels, dump, cascade int }{
		{4, 3, 0, 0}, {4, 3, 1, 0}, {16, 4, 2, 0}, {32, 3, 1, 0}, {32, 4, 2, 0},
		{4, 4, 0, 1}, {4, 4, 0, 2}, {8, 5, 0, 3}, {32, 4, 0, 2},
	} {
		var s *Store
		if g.cascade == 0 {
			s, _ = tappedStore(t, g.bufCap, g.levels, 5, 2*g.bufCap)
		} else {
			// One access before the end of a period with m trailing
			// zeros, and that period's flush.
			s, _ = tappedStore(t, g.bufCap, g.levels, 5, 0)
			putUntil(t, s, cascadePeriod(g.cascade)*uint64(g.bufCap)-1, 5, 3*g.bufCap, nil)
			if err := s.flush(); err != nil {
				t.Fatal(err)
			}
		}
		seal := &countingSealer{slotSealer: s.codec.seal}
		tag := &countingTagger{slotTagger: s.codec.tag}
		s.codec.seal, s.codec.tag = seal, tag

		before := s.Stats()
		what := fmt.Sprintf("(%d,%d) dump(%d)", g.bufCap, g.levels, g.dump)
		n, r := int(s.levels[g.dump].region.Len+s.levels[g.dump+1].region.Len), 0
		var err error
		if g.cascade == 0 {
			err = s.dump(g.dump)
		} else {
			what = fmt.Sprintf("(%d,%d) cascade(%d)", g.bufCap, g.levels, g.cascade)
			n = int(s.cascadeSort(g.cascade).Len)
			r = n - 2*g.bufCap
			err = s.cascade(g.cascade)
		}
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		p := mergePasses(n, g.bufCap)
		t.Logf("%s: %d slots, P=%d, %d refilled: %d opens, %d seals in %d batches, %d masks, %d hashes",
			what, n, p, r, seal.opens, seal.sealed, len(seal.batches), tag.masks, tag.hashes)
		if g.bufCap == 32 {
			want := dumpSealWidths(n, g.bufCap)
			for range r / g.bufCap {
				want = append(want, g.bufCap)
			}
			if !slices.Equal(seal.batches, want) {
				t.Errorf("%s: seal batches of %v slots, want %v", what, seal.batches, want)
			}
		}
		if got := int(st.ShuffleReads - before.ShuffleReads); seal.opens != got {
			t.Errorf("%s: %d opens for %d slots read", what, seal.opens, got)
		}
		if got := int(st.ShuffleWrites - before.ShuffleWrites); seal.sealed != got {
			t.Errorf("%s: %d seals for %d slots written", what, seal.sealed, got)
		}
		if seal.opens > (1+p)*n || seal.sealed > (1+p)*n+r || tag.masks > (2+2*p)*n+r {
			t.Errorf("%s: over budget for P=%d: want ≤ %d opens, ≤ %d seals, ≤ %d masks", what, p, (1+p)*n, (1+p)*n+r, (2+2*p)*n+r)
		}
		if g.cascade > 0 && (seal.opens != (1+p)*n || seal.sealed != (1+p)*n+r) {
			t.Errorf("%s: %d opens and %d seals, want (1+P)·n = %d and (1+P)·n + r = %d", what, seal.opens, seal.sealed, (1+p)*n, (1+p)*n+r)
		}
		if tag.masks != seal.opens+seal.sealed {
			t.Errorf("%s: %d masks for %d slots opened and %d sealed", what, tag.masks, seal.opens, seal.sealed)
		}
		if tag.hashes != (2+p)*n+r {
			t.Errorf("%s: %d hashes for %d slots, P=%d and %d refilled, want (2+P)·n + r = %d", what, tag.hashes, n, p, r, (2+p)*n+r)
		}

		*seal, *tag = countingSealer{slotSealer: seal.slotSealer}, countingTagger{slotTagger: tag.slotTagger}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		if l1 := 2 * g.bufCap; seal.opens != l1 || seal.sealed != l1 || tag.masks != 2*l1 || tag.hashes != 2*l1 {
			t.Errorf("%s: flush of %d slots: %d opens, %d seals, %d masks, %d hashes", what, l1, seal.opens, seal.sealed, tag.masks, tag.hashes)
		}
	}
}

type countingSealer struct {
	slotSealer
	opens, sealed int
	batches       []int // slots per SealMany call, in order
}

func (c *countingSealer) Open(dst, raw []byte) error {
	c.opens++
	return c.slotSealer.Open(dst, raw)
}

func (c *countingSealer) SealMany(dsts [][]byte, nextIV func([]byte), datas [][]byte) error {
	c.sealed += len(dsts)
	c.batches = append(c.batches, len(dsts))
	return c.slotSealer.SealMany(dsts, nextIV, datas)
}

type countingTagger struct {
	slotTagger
	masks, hashes int
}

func (c *countingTagger) Mask(iv *[sealer.IVSize]byte) uint64 {
	c.masks++
	return c.slotTagger.Mask(iv)
}

func (c *countingTagger) Hash(field []byte) uint64 {
	c.hashes++
	return c.slotTagger.Hash(field)
}

// TestCorruptionSurfacesFromItsReader flips one ciphertext byte of a
// block a dump has just written and checks that whatever reads that
// block next fails with ErrCorruptSlot — a dump never sorts a slot it
// could not verify. Every write call of a dump is covered: a run
// written by run formation and a scratch block between two merge
// passes are read back by the same dump; the final pass's output is
// read by the next shuffle over the region.
func TestCorruptionSurfacesFromItsReader(t *testing.T) {
	const bufCap, levels, nput = 4, 3, 9
	for lvl := 0; lvl < 2; lvl++ {
		s, d := tappedStore(t, bufCap, levels, 3, nput)
		n := int(s.levels[lvl].region.Len + s.levels[lvl+1].region.Len)
		if p := mergePasses(n, bufCap); p < 2 {
			t.Fatalf("geometry has %d merge passes; the test needs a scratch block between two", p)
		}
		var writes []tapCall
		for _, c := range recordDump(t, s, d, lvl) {
			if c.write {
				writes = append(writes, c)
			}
		}
		total := 0
		for _, c := range writes {
			total += len(c.blocks)
		}
		written := 0
		for w, c := range writes {
			final := written >= total-n // the last n blocks written are the final pass
			written += len(c.blocks)

			s, d := tappedStore(t, bufCap, levels, 3, nput)
			d.recording = true
			d.afterWrite = func(k int, c tapCall) {
				if k == w {
					d.flipByte(t, c.start+uint64(len(c.blocks))-1)
				}
			}
			err := s.dump(lvl)
			if final && err == nil {
				err = s.dump(lvl)
			}
			if !errors.Is(err, ErrCorruptSlot) {
				t.Fatalf("dump(%d): corrupt block from write %d (%v, final=%v) went unnoticed: %v", lvl, w, c, final, err)
			}
		}
	}
}

// TestFlushRejectsCorruptLevelSlot is the flush half: a level-1 slot
// corrupted at rest fails the flush that scans it.
func TestFlushRejectsCorruptLevelSlot(t *testing.T) {
	for slot := uint64(0); slot < 8; slot++ {
		s, d := tappedStore(t, 4, 3, 4, 3)
		d.flipByte(t, s.levels[0].region.Start+slot)
		if err := s.flush(); !errors.Is(err, ErrCorruptSlot) {
			t.Fatalf("flush over corrupt slot %d: %v", slot, err)
		}
	}
}

// TestCountersMatchParentCommit drives a seeded put/get mix and pins
// the counters that are the store's observable work: {Flushes, Dumps,
// ShuffleReads, ShuffleWrites, LevelReads}. The record-form sort moved
// the order of RNG draws (and so the sealed image) but not one flush,
// dump, shuffle I/O or probe, nor a value read back. A cascade into an
// empty level changed the shuffle counts and nothing else: each row
// also runs with every cascade as pairwise dumps, and that twin meets
// the parent commit's counts.
//
// The counts follow from the schedule. At B = 4 each period flushes
// level 1 (8 reads, 8 writes). A period with m trailing zeros,
// m < k−1, runs one cascade: it sorts n = 2^(m+1)·4 slots (n/4 runs
// merged two at a time in P passes, (1+P)·n reads and as many writes)
// and refills the n − 8 slots of levels 1..m. A period with k−1 or
// more runs dump(0) … dump(k−2), each sorting its 3·2^(i+1)·4 slots in
// place: 24, 48 and 96 slots in P = 3, 4 and 5, so 96, 240 and 576
// reads and as many writes. The pairwise dumps ran that loop for every
// m ≥ 1.
//
//	(4, 3): 140 periods, 35 of m = 1 (16 slots, P = 2: 48 reads,
//	        48 + 8 writes) and 35 of m = 2 (96 + 240): reads
//	        140·8 + 35·48 + 35·336 = 14 560, writes 1 120 + 35·56 +
//	        35·336 = 14 840, dumps 35 + 70 = 105. Pairwise: 16 240
//	        reads and writes, 105 dumps.
//	(4, 4): 144 periods, 36 of m = 1, 18 of m = 2 (32 slots, P = 3:
//	        128 reads, 128 + 24 writes) and 18 of m = 3 (96 + 240 +
//	        576 = 912): reads 1 152 + 36·48 + 18·128 + 18·912 = 21 600,
//	        writes 1 152 + 36·56 + 18·152 + 18·912 = 22 320, dumps
//	        36 + 18 + 54 = 108. Pairwise: 1 152 + 36·96 + 18·336 +
//	        18·912 = 27 072 reads and writes, 36 + 36 + 54 = 126 dumps.
//
// The probes read one slot per level per access that misses the
// buffer; hits and misses do not depend on how a cascade runs, so
// LevelReads is the same on both sides.
func TestCountersMatchParentCommit(t *testing.T) {
	for _, g := range []struct {
		levels       int
		want, parent [5]uint64
	}{
		{3, [5]uint64{140, 105, 14560, 14840, 1044}, [5]uint64{140, 105, 16240, 16240, 1044}},
		{4, [5]uint64{144, 108, 21600, 22320, 1456}, [5]uint64{144, 126, 27072, 27072, 1456}},
	} {
		for _, pairwise := range []bool{false, true} {
			s, _ := tappedStore(t, 4, g.levels, 6, 0)
			s.pairwise = pairwise
			rng := prng.NewFromUint64(2004)
			model := map[uint64][]byte{}
			for op := 0; op < 600; op++ {
				idx := rng.Uint64n(uint64(s.Capacity()))
				id := BlockID{File: 1, Index: idx}
				if rng.Intn(3) == 0 {
					model[idx] = val(s, uint64(op))
					if err := s.Put(id, model[idx]); err != nil {
						t.Fatal(err)
					}
					continue
				}
				got, ok, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if want, cached := model[idx]; ok != cached || !bytes.Equal(got, want) {
					t.Fatalf("(4,%d) op %d: Get(%d) = %v, %x; model has %v, %x", g.levels, op, idx, ok, got, cached, want)
				}
			}
			st := s.Stats()
			got := [5]uint64{st.Flushes, st.Dumps, st.ShuffleReads, st.ShuffleWrites, st.LevelReads}
			want := g.want
			if pairwise {
				want = g.parent
			}
			if got != want {
				t.Errorf("(4,%d) pairwise %v: {Flushes, Dumps, ShuffleReads, ShuffleWrites, LevelReads} = %v, want %v", g.levels, pairwise, got, want)
			}
		}
	}
}
