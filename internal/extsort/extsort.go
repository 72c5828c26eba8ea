// Package extsort implements external merge sort over a region of a
// block device, using a bounded amount of memory.
//
// The oblivious storage (§5.1.2) re-orders each level to a random
// permutation by sorting its blocks on a keyed pseudo-random tag; the
// paper prescribes external merge sort and reserves a scratch
// partition for it. The sort's I/O pattern — long sequential runs —
// is what makes the sorting overhead cheap relative to its I/O count
// (Fig. 12b), so we reproduce the access pattern faithfully: run
// formation reads and writes sequentially, and each merge pass
// advances a bounded set of run cursors.
//
// The sort never interprets a block. It moves records: a Codec opens
// every batch of raw blocks the sort reads into records and their
// keys, and seals every batch of records the sort is about to write.
// Between its one read and its one write in a pass a block exists only
// as a record, and the merge compares the keys it was handed.
package extsort

import (
	"container/heap"
	"fmt"
	"sort"

	"steghide/internal/blockdev"
)

// Region is a contiguous span of blocks [Start, Start+Len).
type Region struct {
	Start uint64
	Len   uint64
}

// End returns the first block after the region.
func (r Region) End() uint64 { return r.Start + r.Len }

// Overlaps reports whether two regions share any block.
func (r Region) Overlaps(o Region) bool {
	return r.Start < o.End() && o.Start < r.End()
}

// Codec translates between the raw blocks on the device and the
// records the sort holds in memory. Sort calls Open once per block it
// reads and Seal once per block it writes, always in whole batches; it
// reads and writes nothing a codec has not seen.
type Codec interface {
	// Open decodes raws — the blocks just read from device positions
	// pos, pos+1, … — into recs and stores each record's sort key in
	// keys. input marks run formation: the one read of each block at
	// its original position in src, where the codec may rewrite the
	// record and so choose its key. On every later read Open must
	// report the key it reported then.
	Open(pos uint64, input bool, raws, recs [][]byte, keys []uint64) error
	// Seal encodes recs into raws, which Sort then writes at device
	// positions pos, pos+1, …. final marks the write that places
	// records at their sorted positions in dst; every record is sealed
	// final exactly once, in position order.
	Seal(pos uint64, final bool, recs, raws [][]byte) error
}

// Window is the memory of a sort: len(Raws) device-block buffers and
// as many record buffers, plus the sort's bookkeeping. The caller owns
// it and sizes Recs for its codec's records. A caller that sorts
// repeatedly — the oblivious store reshuffles on every level dump —
// passes the same window every time, and from the second sort of a
// given geometry on Sort allocates nothing. Buffer contents are scratch
// and Sort permutes Recs freely; between sorts the caller may use both
// for its own batches.
type Window struct {
	Raws [][]byte
	Recs [][]byte

	keys       []uint64 // keys[i] belongs to Recs[i]
	sorter     keyedRecs
	runs, next []Region
	cursors    []cursor
	heap       cursorHeap
	// spare is the output chunk of a two-way merge in a two-block
	// window, the one geometry whose cursors leave no room for it.
	spareRaws, spareRecs [][]byte
}

// Sort orders the blocks of src ascending by key into dst, using
// scratch as temporary space and w as its only block memory. dst is as
// long as src and may overlap it (a caller that sorts in place passes
// src): the final pass, the only one that writes dst, always reads
// from scratch. scratch must overlap neither and be at least as long.
// The window must hold at least two blocks: run formation sorts a
// window of blocks at a time, and merging uses up to that many run
// cursors per pass.
func Sort(dev blockdev.Device, src, dst, scratch Region, codec Codec, w *Window) error {
	if src.Len == 0 {
		return nil
	}
	if dst.Len != src.Len {
		return fmt.Errorf("extsort: dst %d blocks != src %d blocks", dst.Len, src.Len)
	}
	memBlocks := len(w.Raws)
	if memBlocks < 2 || len(w.Recs) != memBlocks {
		return fmt.Errorf("extsort: window of %d blocks and %d records, want two or more of each", memBlocks, len(w.Recs))
	}
	if scratch.Len < src.Len {
		return fmt.Errorf("extsort: scratch %d blocks < src %d blocks", scratch.Len, src.Len)
	}
	if src.Overlaps(scratch) || dst.Overlaps(scratch) {
		return fmt.Errorf("extsort: scratch overlaps src or dst")
	}
	if max(src.End(), dst.End(), scratch.End()) > dev.NumBlocks() {
		return fmt.Errorf("extsort: region beyond device (%d blocks)", dev.NumBlocks())
	}
	if len(w.keys) < memBlocks {
		w.keys = make([]uint64, memBlocks)
	}

	// formRun reads the n blocks at srcPos, sorts them in memory and
	// writes them at dstPos: one sequential read, one sequential write.
	formRun := func(srcPos, dstPos uint64, n uint64, final bool) error {
		raws, recs, keys := w.Raws[:n], w.Recs[:n], w.keys[:n]
		if err := dev.ReadBlocks(srcPos, raws); err != nil {
			return fmt.Errorf("extsort: %w", err)
		}
		if err := codec.Open(srcPos, true, raws, recs, keys); err != nil {
			return fmt.Errorf("extsort: open: %w", err)
		}
		w.sorter = keyedRecs{recs: recs, keys: keys}
		sort.Stable(&w.sorter)
		return writeOut(dev, codec, dstPos, final, recs, raws)
	}

	// In-memory fast path: everything fits in the window, and the one
	// read of src ends before the one write of dst.
	if src.Len <= uint64(memBlocks) {
		return formRun(src.Start, dst.Start, src.Len, true)
	}

	// Merge geometry. Every pass reads and writes every block, so the
	// fan-in is the one that merges the runs in the fewest passes the
	// window admits (mergeFanIn), and of those the smallest, whose
	// cursors get the longest chunks: chunked refills and flushes keep
	// the I/O mostly sequential, which is what makes the sorting
	// overhead cheap in wall-clock terms (Fig. 12b) despite its I/O
	// count. mergeChunks splits the window within each merge. Both read
	// only the run count and the window, so the device calls of a sort
	// are a function of its geometry.
	numRuns := int((src.Len + uint64(memBlocks) - 1) / uint64(memBlocks))
	fanIn, passes := mergeFanIn(numRuns, memBlocks)

	// Pass 0 — run formation: read windows of memBlocks, sort in
	// memory, write back sequentially. The passes ping-pong between src
	// and scratch, and runs are placed so that the last pass reads
	// scratch: even pass count → form runs in src (in place), odd →
	// form runs in scratch. The last pass writes dst in place of src,
	// so the final run lands there with no extra copy.
	cur, other := src, scratch
	if passes%2 == 1 {
		cur, other = scratch, src
	}
	runs, next := w.runs[:0], w.next[:0]
	for off := uint64(0); off < src.Len; {
		n := min(uint64(memBlocks), src.Len-off)
		if err := formRun(src.Start+off, cur.Start+off, n, false); err != nil {
			return err
		}
		runs = append(runs, Region{Start: cur.Start + off, Len: n})
		off += n
	}

	for len(runs) > 1 {
		// The parity choice above makes the pass that leaves one run
		// a pass that reads scratch.
		final := len(runs) <= fanIn
		to := other
		if final {
			if cur != scratch {
				return fmt.Errorf("extsort: pass parity disagrees with geometry (%d runs, fan-in %d)", len(runs), fanIn)
			}
			to = dst
		}
		next = next[:0]
		off := uint64(0)
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := min(lo+fanIn, len(runs))
			in, out := mergeChunks(memBlocks, hi-lo)
			merged, err := w.mergeRuns(dev, codec, runs[lo:hi], to.Start+off, in, out, final)
			if err != nil {
				return err
			}
			next = append(next, merged)
			off += merged.Len
		}
		runs, next = next, runs
		cur, other = other, cur
	}
	w.runs, w.next = runs[:0], next[:0]
	return nil
}

// writeOut seals recs into raws and writes them at [pos, pos+len(recs))
// in one device batch. All of the sort's write traffic is contiguous,
// so every write is one batch call.
func writeOut(dev blockdev.Device, codec Codec, pos uint64, final bool, recs, raws [][]byte) error {
	if err := codec.Seal(pos, final, recs, raws); err != nil {
		return fmt.Errorf("extsort: seal: %w", err)
	}
	if err := dev.WriteBlocks(pos, raws); err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	return nil
}

// keyedRecs sorts records by the keys their codec reported. The sort
// is stable, so the output order is unique for a fixed key assignment.
type keyedRecs struct {
	recs [][]byte
	keys []uint64
}

func (k *keyedRecs) Len() int           { return len(k.recs) }
func (k *keyedRecs) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedRecs) Swap(i, j int) {
	k.recs[i], k.recs[j] = k.recs[j], k.recs[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// mergeFanIn returns the fan-in that merges runs runs in an m-block
// window in the fewest passes, the smallest such, and that pass count.
// The widest merge the window admits is ⌊√m⌋ runs or, where it holds a
// seal batch beside one block per cursor, up to sealBatch runs
// (mergeChunks then gives the output its batch and each cursor at
// least one block). The cap keeps windows of 256 blocks and more at
// ⌊√m⌋ ≥ 16, so their cursor chunks stay long.
func mergeFanIn(runs, m int) (fanIn, passes int) {
	passes = mergePasses(runs, max(2, intSqrt(m), min(m-sealBatch, sealBatch)))
	fanIn = 2
	for mergePasses(runs, fanIn) > passes {
		fanIn++
	}
	return fanIn, passes
}

// mergePasses is the number of passes that merge runs runs into one,
// fanIn at a time.
func mergePasses(runs, fanIn int) int {
	passes := 0
	for r := runs; r > 1; r = (r + fanIn - 1) / fanIn {
		passes++
	}
	return passes
}

func intSqrt(n int) int {
	if n < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// cursor tracks the head of one run during a merge. It refills a
// multi-block chunk with sequential reads, so most of the merge's
// input I/O continues the previous access, and holds the chunk opened:
// recs[head] is the run's current record and keys[head] its key.
type cursor struct {
	raws, recs [][]byte
	keys       []uint64
	have, head int    // records buffered; index of the current one
	pos        uint64 // blocks of the run read so far
	run        Region
	tie        int // run ordinal, makes the merge stable
	done       bool
}

type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	ki, kj := h[i].keys[h[i].head], h[j].keys[h[j].head]
	if ki != kj {
		return ki < kj
	}
	return h[i].tie < h[j].tie
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// fill refills the chunk with one batched sequential read from the
// run and opens it; an exhausted run marks the cursor done.
func (c *cursor) fill(dev blockdev.Device, codec Codec) error {
	n := min(uint64(len(c.raws)), c.run.Len-c.pos)
	if n == 0 {
		c.done = true
		return nil
	}
	at := c.run.Start + c.pos
	if err := dev.ReadBlocks(at, c.raws[:n]); err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	if err := codec.Open(at, false, c.raws[:n], c.recs[:n], c.keys[:n]); err != nil {
		return fmt.Errorf("extsort: open: %w", err)
	}
	c.pos += n
	c.have, c.head = int(n), 0
	return nil
}

// advance steps to the run's next record.
func (c *cursor) advance(dev blockdev.Device, codec Codec) error {
	if c.head++; c.head < c.have {
		return nil
	}
	return c.fill(dev, codec)
}

// sealBatch is the output batch a merge fills where the window has room
// for it: the width of the widest cipher group (aeskern.WideLanes), so
// every full batch is sealed in whole kernel calls. It is a constant of
// the sort, not of the host's kernel tier, so every build issues the
// same device calls.
const sealBatch = 16

// mergeChunks splits a window of m blocks between the k cursors of one
// merge and its output, returning each cursor's chunk and the output
// batch. All k+1 take an even share, except where that share is below
// sealBatch and the window holds a seal batch beside one record per
// cursor: then the output takes sealBatch and the cursors share the
// rest. Either way the merge holds at most m blocks, bar the two-block
// window's spare.
func mergeChunks(m, k int) (in, out int) {
	even := max(m/(k+1), 1)
	if even >= sealBatch || m-sealBatch < k {
		return even, even
	}
	return (m - sealBatch) / k, sealBatch
}

// carve returns the n-block slice of the window that starts at block
// lo. Cursor i of a merge takes [i·in, (i+1)·in) and the output the
// out blocks after the last cursor; mergeChunks keeps them inside the
// window whenever it holds three blocks or more.
func (w *Window) carve(lo, n int) (raws, recs [][]byte, keys []uint64) {
	if hi := lo + n; hi <= len(w.Raws) {
		return w.Raws[lo:hi], w.Recs[lo:hi], w.keys[lo:hi]
	}
	if w.spareRaws == nil {
		w.spareRaws = blockdev.AllocBlocks(n, len(w.Raws[0]))
		w.spareRecs = blockdev.AllocBlocks(n, len(w.Recs[0]))
	}
	return w.spareRaws, w.spareRecs, nil
}

// mergeRuns k-way merges the given runs into a region starting at
// dstStart and returns it. Each cursor reads through a buffer of `in`
// blocks and the output fills one of `out`, each refilled or flushed
// as a single device batch, so the pass's I/O stays mostly sequential
// and costs one batch call per chunk. A record moves from its cursor to
// the output by swapping buffers, never by copying, and is sealed
// once, in its output batch.
func (w *Window) mergeRuns(dev blockdev.Device, codec Codec, runs []Region, dstStart uint64, in, out int, final bool) (Region, error) {
	if cap(w.cursors) < len(runs) {
		w.cursors = make([]cursor, len(runs))
		w.heap = make(cursorHeap, 0, len(runs))
	}
	cursors := w.cursors[:len(runs)]
	w.heap = w.heap[:0]
	var total uint64
	for i, r := range runs {
		total += r.Len
		c := &cursors[i]
		*c = cursor{run: r, tie: i}
		c.raws, c.recs, c.keys = w.carve(i*in, in)
		if err := c.fill(dev, codec); err != nil {
			return Region{}, err
		}
		if !c.done {
			w.heap = append(w.heap, c)
		}
	}
	heap.Init(&w.heap)
	at := dstStart
	outRaws, outRecs, _ := w.carve(len(runs)*in, out)
	outN := 0
	flush := func() error {
		if outN == 0 {
			return nil
		}
		if err := writeOut(dev, codec, at, final, outRecs[:outN], outRaws[:outN]); err != nil {
			return err
		}
		at += uint64(outN)
		outN = 0
		return nil
	}
	for len(w.heap) > 0 {
		c := w.heap[0]
		k := c.keys[c.head]
		outRecs[outN], c.recs[c.head] = c.recs[c.head], outRecs[outN]
		outN++
		if err := c.advance(dev, codec); err != nil {
			return Region{}, err
		}
		if c.done {
			heap.Pop(&w.heap)
		} else {
			if c.keys[c.head] < k {
				return Region{}, fmt.Errorf("extsort: codec reported an unstable key during merge")
			}
			heap.Fix(&w.heap, 0)
		}
		if outN == out {
			if err := flush(); err != nil {
				return Region{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return Region{}, err
	}
	return Region{Start: dstStart, Len: total}, nil
}
