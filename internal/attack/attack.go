// Package attack implements the two adversaries of §3.2.2, used by
// tests and examples to demonstrate that the baselines leak and the
// constructions do not:
//
//   - UpdateAnalyzer — the snapshot-diffing attacker: scans the raw
//     storage repeatedly, diffs consecutive snapshots, and looks for
//     structure in the changed-block sets (stable hot sets, non-uniform
//     spatial distribution).
//   - TrafficAnalyzer — the wire-tapping attacker: observes the I/O
//     request stream between agent and storage and looks for repeated
//     addresses and frequency skew.
//
// A third looks at content instead of addresses: CompareContent is
// the snapshot attacker asking whether two populations of raw blocks —
// say the blocks cover traffic refilled and the blocks holding sealed
// data — are the same kind of bytes.
//
// All output a verdict with the statistical evidence, so experiments
// can report "detected hidden activity: yes/no (p = …)".
package attack

import (
	"bytes"
	"compress/flate"
	"fmt"

	"steghide/internal/blockdev"
	"steghide/internal/stats"
)

// Verdict is an attacker's conclusion.
type Verdict struct {
	// Detected is true when the attacker found statistically
	// significant structure (p < Alpha).
	Detected bool
	// PValue is the probability of the observed structure under the
	// "nothing but noise" hypothesis.
	PValue float64
	// Evidence is a human-readable summary.
	Evidence string
}

// Alpha is the significance level attackers use.
const Alpha = 0.001

// UpdateAnalyzer diffs full-volume snapshots.
type UpdateAnalyzer struct {
	blockSize int
	nBlocks   uint64
	prev      []byte
	diffs     [][]uint64 // changed-block sets per snapshot interval
}

// NewUpdateAnalyzer creates an analyzer for a volume of the given
// geometry.
func NewUpdateAnalyzer(blockSize int, nBlocks uint64) *UpdateAnalyzer {
	return &UpdateAnalyzer{blockSize: blockSize, nBlocks: nBlocks}
}

// Observe takes the next snapshot. The first call establishes the
// baseline; subsequent calls record the set of changed blocks.
func (u *UpdateAnalyzer) Observe(snapshot []byte) error {
	if uint64(len(snapshot)) != uint64(u.blockSize)*u.nBlocks {
		return fmt.Errorf("attack: snapshot of %d bytes, want %d", len(snapshot), uint64(u.blockSize)*u.nBlocks)
	}
	if u.prev != nil {
		var changed []uint64
		for i := uint64(0); i < u.nBlocks; i++ {
			off := i * uint64(u.blockSize)
			if !bytes.Equal(u.prev[off:off+uint64(u.blockSize)], snapshot[off:off+uint64(u.blockSize)]) {
				changed = append(changed, i)
			}
		}
		u.diffs = append(u.diffs, changed)
	}
	u.prev = append(u.prev[:0], snapshot...)
	return nil
}

// Intervals returns the number of recorded snapshot intervals.
func (u *UpdateAnalyzer) Intervals() int { return len(u.diffs) }

// ChangedBlocks returns all changed blocks across intervals.
func (u *UpdateAnalyzer) ChangedBlocks() []uint64 {
	var all []uint64
	for _, d := range u.diffs {
		all = append(all, d...)
	}
	return all
}

// SpatialUniformity tests whether the changed blocks are spread
// uniformly over the volume. In-place update systems concentrate
// changes on the hidden file's blocks; Figure 6 spreads them
// uniformly. bins must satisfy the chi-square expected-count rule.
func (u *UpdateAnalyzer) SpatialUniformity(bins int) (Verdict, error) {
	all := u.ChangedBlocks()
	if len(all) == 0 {
		return Verdict{}, fmt.Errorf("attack: no changes observed")
	}
	hist := stats.Histogram(all, u.nBlocks, bins)
	stat, p, err := stats.ChiSquareUniform(hist)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("chi-square=%.1f over %d bins, %d changed blocks", stat, bins, len(all)),
	}, nil
}

// HotSetStability measures how similar consecutive changed-block sets
// are (mean Jaccard index). In-place systems rewrite the same blocks
// interval after interval (similarity → 1); relocating systems leave
// nothing stable (similarity → utilization-level noise). Returns the
// mean similarity and a verdict against the given threshold.
func (u *UpdateAnalyzer) HotSetStability(threshold float64) (float64, Verdict, error) {
	if len(u.diffs) < 2 {
		return 0, Verdict{}, fmt.Errorf("attack: need at least 2 intervals, have %d", len(u.diffs))
	}
	total := 0.0
	n := 0
	for i := 1; i < len(u.diffs); i++ {
		total += jaccard(u.diffs[i-1], u.diffs[i])
		n++
	}
	mean := total / float64(n)
	v := Verdict{
		Detected: mean > threshold,
		PValue:   0, // similarity test, not a p-value test
		Evidence: fmt.Sprintf("mean Jaccard similarity %.3f over %d intervals (threshold %.3f)", mean, n, threshold),
	}
	return mean, v, nil
}

func jaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[uint64]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	for _, x := range b {
		if set[x] {
			inter++
		}
	}
	union := len(set) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TrafficAnalyzer inspects an observed I/O event stream.
type TrafficAnalyzer struct {
	nBlocks uint64
}

// NewTrafficAnalyzer creates an analyzer for a device of n blocks.
func NewTrafficAnalyzer(nBlocks uint64) *TrafficAnalyzer {
	return &TrafficAnalyzer{nBlocks: nBlocks}
}

// RepeatedReads counts addresses read more than once in the stream —
// the signature of an application re-reading data at a fixed location.
// The oblivious storage never re-reads a slot between shuffles, while
// direct StegFS reads repeat whenever the user does.
func (t *TrafficAnalyzer) RepeatedReads(events []blockdev.Event) (repeats int, distinct int) {
	seen := map[uint64]int{}
	for _, e := range blockdev.ExpandEvents(events) {
		if e.Op != blockdev.OpRead {
			continue
		}
		seen[e.Block]++
	}
	for _, c := range seen {
		if c > 1 {
			repeats += c - 1
		}
	}
	return repeats, len(seen)
}

// FrequencySkew tests whether read addresses are uniform across the
// observed region. Application access patterns (hot blocks, scans)
// skew it; dummy-mixed oblivious traffic does not.
func (t *TrafficAnalyzer) FrequencySkew(events []blockdev.Event, bins int) (Verdict, error) {
	var reads []uint64
	for _, e := range blockdev.ExpandEvents(events) {
		if e.Op == blockdev.OpRead {
			reads = append(reads, e.Block)
		}
	}
	if len(reads) == 0 {
		return Verdict{}, fmt.Errorf("attack: no reads observed")
	}
	hist := stats.Histogram(reads, t.nBlocks, bins)
	stat, p, err := stats.ChiSquareUniform(hist)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("chi-square=%.1f over %d bins, %d reads", stat, bins, len(reads)),
	}, nil
}

// Shape is one maximal run of same-direction accesses to one region of
// the volume — the journal ring or the steg space — in a device trace.
type Shape struct {
	Op     blockdev.Op
	Ring   bool
	Blocks uint64
}

// CallShape reduces a device trace to its skeleton: how many blocks
// were read or written in a row in which region, every address
// dropped. Definition 1 is about addresses; the skeleton is what is
// left for an observer who ignores them and watches how accesses are
// grouped, so a data-update run and the idle burst of as many stream
// elements must reduce to the same one. firstData is the first block of
// the steg space.
func CallShape(events []blockdev.Event, firstData uint64) []Shape {
	var out []Shape
	for _, e := range events {
		s := Shape{Op: e.Op, Ring: e.Block < firstData, Blocks: e.Span()}
		if n := len(out); n > 0 && out[n-1].Op == s.Op && out[n-1].Ring == s.Ring {
			out[n-1].Blocks += s.Blocks
			continue
		}
		out = append(out, s)
	}
	return out
}

// CompareStreams is the operational form of Definition 1: given the
// write-address histograms of an idle (dummy-only) period and an
// active period, decide whether they differ. A secure construction
// yields Detected == false for any workload.
func CompareStreams(idle, active []uint64, nBlocks uint64, bins int) (Verdict, error) {
	h1 := stats.Histogram(idle, nBlocks, bins)
	h2 := stats.Histogram(active, nBlocks, bins)
	stat, p, err := stats.ChiSquareTwoSample(h1, h2)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("two-sample chi-square=%.1f over %d bins (%d vs %d events)", stat, bins, len(idle), len(active)),
	}, nil
}

// CompareStreamsK generalizes CompareStreams to k observation periods:
// the k-snapshot adversary diffs k+1 snapshots into k changed-block
// streams and asks whether any period's spatial distribution stands
// out from the rest (chi-square homogeneity over the k×bins table).
// A secure construction yields Detected == false no matter how the
// attacker slices the timeline.
func CompareStreamsK(streams [][]uint64, nBlocks uint64, bins int) (Verdict, error) {
	if len(streams) < 2 {
		return Verdict{}, fmt.Errorf("attack: need at least 2 streams, have %d", len(streams))
	}
	hists := make([][]uint64, len(streams))
	events := 0
	for i, s := range streams {
		hists[i] = stats.Histogram(s, nBlocks, bins)
		events += len(s)
	}
	stat, p, err := stats.ChiSquareKSample(hists...)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("%d-sample chi-square=%.1f over %d bins (%d events)", len(streams), stat, bins, events),
	}, nil
}

// SnapshotHomogeneity runs the k-snapshot diff adversary over the
// analyzer's own recorded intervals: each consecutive snapshot pair
// contributes one changed-block sample, and the test asks whether the
// per-interval spatial distributions are mutually homogeneous. With
// Figure-6 relocation every interval should look like an independent
// uniform draw; an in-place system betrays the workload's phases.
func (u *UpdateAnalyzer) SnapshotHomogeneity(bins int) (Verdict, error) {
	if len(u.diffs) < 2 {
		return Verdict{}, fmt.Errorf("attack: need at least 2 intervals, have %d", len(u.diffs))
	}
	return CompareStreamsK(u.diffs, u.nBlocks, bins)
}

// CompareContent is the content-inspecting adversary: handed two
// populations of raw blocks, it decides whether what they contain
// tells them apart. histogram pools each population's byte values and
// applies the chi-square homogeneity test (first-order structure);
// complexity compares the populations' per-block deflate ratios by a
// two-sample test on their means — the compressibility detector of "A
// Complexity Approach for Steganalysis", which catches any redundancy
// LZ77 + Huffman can exploit. The volume's premise is that every
// block, sealed data or filler, looks like random bytes: a secure
// build yields Detected == false on both for any split of its blocks.
func CompareContent(a, b [][]byte) (histogram, complexity Verdict, err error) {
	if len(a) == 0 || len(b) == 0 {
		return Verdict{}, Verdict{}, fmt.Errorf("attack: populations of %d and %d blocks", len(a), len(b))
	}
	ha, ra, err := contentStats(a)
	if err != nil {
		return Verdict{}, Verdict{}, err
	}
	hb, rb, err := contentStats(b)
	if err != nil {
		return Verdict{}, Verdict{}, err
	}
	stat, p, err := stats.ChiSquareTwoSample(ha, hb)
	if err != nil {
		return Verdict{}, Verdict{}, err
	}
	histogram = Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("byte-histogram chi-square=%.1f (%d vs %d blocks)", stat, len(a), len(b)),
	}
	z, p, err := stats.MeanDifference(ra, rb)
	if err != nil {
		return Verdict{}, Verdict{}, err
	}
	complexity = Verdict{
		Detected: p < Alpha,
		PValue:   p,
		Evidence: fmt.Sprintf("deflate ratio %.4f vs %.4f, z=%.2f", stats.Mean(ra), stats.Mean(rb), z),
	}
	return histogram, complexity, nil
}

// contentStats returns a population's pooled byte histogram and its
// per-block deflate ratios.
func contentStats(blocks [][]byte) (hist []uint64, ratios []float64, err error) {
	hist = make([]uint64, 256)
	ratios = make([]float64, 0, len(blocks))
	var size countingWriter
	w, err := flate.NewWriter(&size, flate.BestCompression)
	if err != nil {
		return nil, nil, err
	}
	for _, blk := range blocks {
		if len(blk) == 0 {
			return nil, nil, fmt.Errorf("attack: empty block")
		}
		for _, c := range blk {
			hist[c]++
		}
		size = 0
		w.Reset(&size)
		if _, err := w.Write(blk); err != nil {
			return nil, nil, err
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
		ratios = append(ratios, float64(size)/float64(len(blk)))
	}
	return hist, ratios, nil
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
