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
	if err := s.Flush(); err != nil {
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

// mergePasses is P for a dump over n slots with a window of b blocks:
// the number of merge passes extsort runs after run formation.
func mergePasses(n, b int) int {
	fanIn := 2
	for (fanIn+1)*(fanIn+1) <= b {
		fanIn++
	}
	p := 0
	for runs := (n + b - 1) / b; runs > 1; runs = (runs + fanIn - 1) / fanIn {
		p++
	}
	return p
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
// issue the same canonical sequence, and it equals the one recorded
// from the commit before the record-form sort (testdata, B = 4, k = 3).
func TestDumpCallSequenceIsGeometry(t *testing.T) {
	golden, err := os.ReadFile("testdata/dump_calls_b4k3.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for lvl := 0; lvl < 2; lvl++ {
		sa, da := tappedStore(t, 4, 3, 1, 3)
		sb, db := tappedStore(t, 4, 3, 2, 11)
		a := canonicalCalls(recordDump(t, sa, da, lvl))
		b := canonicalCalls(recordDump(t, sb, db, lvl))
		if !slices.Equal(a, b) {
			t.Fatalf("dump(%d): call sequence depends on seed or contents", lvl)
		}
		fmt.Fprintf(&got, "dump %d\n%s\n", lvl, strings.Join(a, "\n"))
	}
	if got.String() != string(golden) {
		t.Fatalf("call sequence differs from the recorded one; got:\n%s", got.String())
	}
}

// TestDumpWritesAreUnlinkable checks what re-encrypting on every pass
// is for: no block a dump writes shares its IV, or its first
// ciphertext block, with any block the dump read or wrote before it —
// so a slot cannot be followed from pass to pass by ciphertext.
func TestDumpWritesAreUnlinkable(t *testing.T) {
	for lvl := 0; lvl < 2; lvl++ {
		s, d := tappedStore(t, 4, 3, 7, 9)
		type half [sealer.IVSize]byte
		seen := map[half]bool{}
		for n, c := range recordDump(t, s, d, lvl) {
			for i, b := range c.blocks {
				iv, first := half(b[:sealer.IVSize]), half(b[sealer.IVSize:2*sealer.IVSize])
				if c.write && (seen[iv] || seen[first]) {
					t.Fatalf("dump(%d) call %d (%v): block %d repeats an IV or ciphertext block seen earlier", lvl, n, c, c.start+uint64(i))
				}
				seen[iv], seen[first] = true, true
			}
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
	if epoch := s.LevelEpoch(levels); epoch < 2 {
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
// and the put's).
func TestDumpCryptoBudget(t *testing.T) {
	for _, g := range []struct{ bufCap, levels, dump int }{
		{4, 3, 0}, {4, 3, 1}, {16, 4, 2}, {32, 3, 1},
	} {
		s, _ := tappedStore(t, g.bufCap, g.levels, 5, 2*g.bufCap)
		seal := &countingSealer{slotSealer: s.codec.seal}
		tag := &countingTagger{slotTagger: s.codec.tag}
		s.codec.seal, s.codec.tag = seal, tag

		before := s.Stats()
		if err := s.dump(g.dump); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		n := int(s.levels[g.dump].region.Len + s.levels[g.dump+1].region.Len)
		p := mergePasses(n, g.bufCap)
		t.Logf("(%d,%d) dump(%d): %d slots, P=%d: %d opens, %d seals in %d batches, %d masks, %d hashes",
			g.bufCap, g.levels, g.dump, n, p, seal.opens, seal.sealed, seal.batches, tag.masks, tag.hashes)
		if got := int(st.ShuffleReads - before.ShuffleReads); seal.opens != got {
			t.Errorf("%d opens for %d slots read", seal.opens, got)
		}
		if got := int(st.ShuffleWrites - before.ShuffleWrites); seal.sealed != got {
			t.Errorf("%d seals for %d slots written", seal.sealed, got)
		}
		if seal.opens > (1+p)*n || seal.sealed > (1+p)*n || tag.masks > (2+2*p)*n {
			t.Errorf("over budget for P=%d: want ≤ %d opens, ≤ %d seals, ≤ %d masks", p, (1+p)*n, (1+p)*n, (2+2*p)*n)
		}
		if tag.masks != seal.opens+seal.sealed {
			t.Errorf("%d masks for %d slots opened and %d sealed", tag.masks, seal.opens, seal.sealed)
		}
		if tag.hashes != (2+p)*n {
			t.Errorf("%d hashes for %d slots and P=%d, want (2+P)·n = %d", tag.hashes, n, p, (2+p)*n)
		}

		*seal, *tag = countingSealer{slotSealer: seal.slotSealer}, countingTagger{slotTagger: tag.slotTagger}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		if l1 := 2 * g.bufCap; seal.opens != l1 || seal.sealed != l1 || tag.masks != 2*l1 || tag.hashes != 2*l1 {
			t.Errorf("flush of %d slots: %d opens, %d seals, %d masks, %d hashes", l1, seal.opens, seal.sealed, tag.masks, tag.hashes)
		}
	}
}

type countingSealer struct {
	slotSealer
	opens, sealed, batches int
}

func (c *countingSealer) Open(dst, raw []byte) error {
	c.opens++
	return c.slotSealer.Open(dst, raw)
}

func (c *countingSealer) SealMany(dsts [][]byte, nextIV func([]byte), datas [][]byte) error {
	c.sealed += len(dsts)
	c.batches++
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
// the counters that are the store's observable work. The constants
// were recorded from the commit before the record-form sort: that
// change moved the order of RNG draws (and so the sealed image) but
// may not move one flush, dump, shuffle I/O or probe, nor a value
// read back.
func TestCountersMatchParentCommit(t *testing.T) {
	s, _ := tappedStore(t, 4, 3, 6, 0)
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
			t.Fatalf("op %d: Get(%d) = %v, %x; model has %v, %x", op, idx, ok, got, cached, want)
		}
	}
	st := s.Stats()
	got := [5]uint64{st.Flushes, st.Dumps, st.ShuffleReads, st.ShuffleWrites, st.LevelReads}
	want := [5]uint64{140, 105, 16240, 16240, 1044}
	if got != want {
		t.Fatalf("{Flushes, Dumps, ShuffleReads, ShuffleWrites, LevelReads} = %v, parent commit had %v", got, want)
	}
}
