package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
	"steghide/internal/oblivious"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// ObliPoint is one buffer-size point of the oblivious-storage sweep
// behind Table 4 and Figures 12(a)/(b).
type ObliPoint struct {
	Label           string        // buffer size at paper scale
	BufferSlots     int           // B
	Height          int           // k = log2(lastLevel/B)
	TheoryOverhead  float64       // 2k + 4k·(⌈log_B 2^k⌉ + 1), §5.2
	MeasuredIOs     float64       // observed I/Os per cached read
	ObliRead        time.Duration // mean cached-read time
	StegRead        time.Duration // mean direct StegFS read time
	Ratio           float64       // ObliRead / StegRead
	SortFraction    float64       // sorting share of access time
	RetrieveFrac    float64       // retrieving share of access time
	DistinctBlocks  int           // working set read through the store
	ShuffleSeqShare float64       // sequential share of shuffle I/O
}

// sweepCache memoizes RunObliSweep results: Table 4 and Figures
// 12(a)/(b) are three views of the same deterministic sweep, so one
// run serves all of them.
var sweepCache sync.Map // string key → []ObliPoint

// RunObliSweep runs the oblivious-storage experiment for every buffer
// size in the scale: populate a StegFS partition, warm the cache with
// every block, then read the whole working set again through the
// cache and measure per-read cost, I/O counts and the sort/retrieve
// time split.
func RunObliSweep(s Scale) ([]ObliPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%d/%d/%v/%d/%d", s.ObliLastLevelSlots, s.LayoutBlockSize,
		s.ObliBufferSlots, s.TimingBlockSize, s.Seed)
	if cached, ok := sweepCache.Load(key); ok {
		return cached.([]ObliPoint), nil
	}
	var out []ObliPoint
	for i, bufSlots := range s.ObliBufferSlots {
		p, err := runObliPoint(s, bufSlots, s.ObliBufferLabels[i])
		if err != nil {
			return nil, fmt.Errorf("buffer %s: %w", s.ObliBufferLabels[i], err)
		}
		out = append(out, *p)
	}
	sweepCache.Store(key, out)
	return out, nil
}

func runObliPoint(s Scale, bufSlots int, label string) (*ObliPoint, error) {
	last := s.ObliLastLevelSlots
	if last%uint64(bufSlots) != 0 {
		return nil, fmt.Errorf("experiments: last level %d not a multiple of buffer %d", last, bufSlots)
	}
	k := int(math.Round(math.Log2(float64(last) / float64(bufSlots))))
	if uint64(bufSlots)<<uint(k) != last {
		return nil, fmt.Errorf("experiments: last level / buffer not a power of two")
	}
	rng := prng.NewFromUint64(s.Seed + uint64(bufSlots))

	// StegFS partition with the working set. Distinct blocks = a
	// quarter of the last level: comfortably within cache capacity
	// (half the last level) even with shuffle-churn duplicates.
	distinct := int(last / 4)
	stegBlocks := uint64(distinct)*2 + 64
	stegDisk := diskmodel.MustNew(diskmodel.Params2004(stegBlocks, s.TimingBlockSize))
	stegDev := blockdev.NewSim(blockdev.NewMem(s.LayoutBlockSize, stegBlocks), stegDisk)
	vol, err := stegfs.Format(stegDev, stegfs.FormatOptions{KDFIterations: 4, FillSeed: rng.Bytes(16)})
	if err != nil {
		return nil, err
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng.Child("alloc"))

	maxPerFile := int(vol.MaxFileBlocks())
	type filePart struct {
		f      *stegfs.File
		blocks int
	}
	var parts []filePart
	for left, ord := distinct, 0; left > 0; ord++ {
		n := min(left, maxPerFile)
		fak := stegfs.DeriveFAK("owner", fmt.Sprintf("/ws/%d", ord), vol)
		f, err := stegfs.CreateFile(vol, fak, fmt.Sprintf("/ws/%d", ord), src)
		if err != nil {
			return nil, err
		}
		if err := f.Resize(uint64(n)*uint64(vol.PayloadSize()), stegfs.InPlacePolicy{Vol: vol}); err != nil {
			return nil, err
		}
		if err := f.Save(); err != nil {
			return nil, err
		}
		parts = append(parts, filePart{f: f, blocks: n})
		left -= n
	}

	// Oblivious cache on its own partition; slot = payload + entry
	// metadata. Timing uses the 4 KB-class geometry.
	slotSize := s.LayoutBlockSize + 64
	footprint := oblivious.Footprint(bufSlots, k)
	cacheDisk := diskmodel.MustNew(diskmodel.Params2004(footprint, s.TimingBlockSize))
	cacheDev := blockdev.NewSim(blockdev.NewMem(slotSize, footprint), cacheDisk)
	store, err := oblivious.New(oblivious.Config{
		Dev:          cacheDev,
		Key:          sealer.DeriveKey(rng.Bytes(32), "session-cache"),
		BufferBlocks: bufSlots,
		Levels:       k,
		RNG:          rng.Child("store"),
		Clock:        cacheDisk.Now,
	})
	if err != nil {
		return nil, err
	}
	fs, err := oblivious.NewFS(store, vol, rng.Child("fs"))
	if err != nil {
		return nil, err
	}
	for ord, p := range parts {
		if err := fs.Register(uint64(ord), p.f); err != nil {
			return nil, err
		}
		_ = p
	}

	// Warm phase: pull every block into the cache (read_stegfs path).
	block := make([]byte, vol.PayloadSize())
	for ord, p := range parts {
		for li := 0; li < p.blocks; li++ {
			if err := fs.ReadBlock(uint64(ord), uint64(li), block); err != nil {
				return nil, err
			}
		}
	}

	// Measure phase: read the whole working set again, in random
	// order, through the cache.
	type ref struct{ ord, li uint64 }
	refs := make([]ref, 0, distinct)
	for ord, p := range parts {
		for li := 0; li < p.blocks; li++ {
			refs = append(refs, ref{uint64(ord), uint64(li)})
		}
	}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })

	store.ResetStats()
	cacheDisk.ResetStats()
	t0 := cacheDisk.Now()
	for _, r := range refs {
		if err := fs.ReadBlock(r.ord, r.li, block); err != nil {
			return nil, err
		}
	}
	elapsed := cacheDisk.Now() - t0
	st := store.Stats()
	cst := cacheDisk.Stats()
	if st.Misses > 0 {
		return nil, fmt.Errorf("experiments: %d unexpected cache misses in measure phase", st.Misses)
	}

	// Direct StegFS comparison: the same reads without the cache.
	stegDisk.ResetStats()
	d0 := stegDisk.Now()
	for _, r := range refs {
		if _, err := parts[r.ord].f.ReadBlockAt(r.li); err != nil {
			return nil, err
		}
	}
	stegElapsed := stegDisk.Now() - d0

	reads := float64(len(refs))
	theory := theoreticalOverhead(k, bufSlots)
	total := st.SortTime + st.RetrieveTime
	point := &ObliPoint{
		Label:          label,
		BufferSlots:    bufSlots,
		Height:         k,
		TheoryOverhead: theory,
		MeasuredIOs:    float64(st.LevelReads+st.ShuffleReads+st.ShuffleWrites) / reads,
		ObliRead:       elapsed / time.Duration(len(refs)),
		StegRead:       stegElapsed / time.Duration(len(refs)),
		DistinctBlocks: distinct,
	}
	if point.StegRead > 0 {
		point.Ratio = float64(point.ObliRead) / float64(point.StegRead)
	}
	if total > 0 {
		point.SortFraction = float64(st.SortTime) / float64(total)
		point.RetrieveFrac = float64(st.RetrieveTime) / float64(total)
	}
	if cst.Accesses > 0 {
		point.ShuffleSeqShare = float64(cst.Sequential) / float64(cst.Accesses)
	}
	return point, nil
}

// theoreticalOverhead is §5.2's per-read I/O cost 2k + 4k·(p+1),
// where p = ⌈log_B 2^k⌉ is the number of merge passes of the external
// sort (at least one). For the paper's geometries 2^k ≤ B, so p = 1
// and the factor is 10k — matching Table 4's 70…30.
func theoreticalOverhead(k, bufSlots int) float64 {
	passes := math.Ceil(math.Log(float64(uint64(1)<<uint(k))) / math.Log(float64(bufSlots)))
	if passes < 1 {
		passes = 1
	}
	return float64(2*k) + float64(4*k)*(passes+1)
}

// Table4 reproduces Table 4: oblivious-storage height and overhead
// factor vs buffer size.
func Table4(s Scale) (*Table, error) {
	points, err := RunObliSweep(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table4",
		Title:   "Overhead factor vs. buffer size",
		Columns: []string{"buffer size", "height", "overhead (analytic)", "I/Os per read (measured)"},
	}
	for _, p := range points {
		t.AddRow(p.Label, p.Height, fmt.Sprintf("%.0f", p.TheoryOverhead), fmt.Sprintf("%.1f", p.MeasuredIOs))
	}
	t.Note("analytic overhead is §5.2's 2k+4k(⌈log_B 2^k⌉+1); measured I/Os amortize the shuffle passes")
	return t, nil
}

// Fig12a reproduces Figure 12(a): mean per-block access time of the
// oblivious storage vs direct StegFS, across buffer sizes. The paper
// reports 5–12× (better than the analytic factor, thanks to the
// sort's sequential I/O).
func Fig12a(s Scale) (*Table, error) {
	points, err := RunObliSweep(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12a",
		Title:   "Oblivious storage — access time vs. buffer size (seconds per block)",
		Columns: []string{"buffer size", "Obli-Store", "StegFS", "ratio"},
	}
	for _, p := range points {
		t.AddRow(p.Label,
			fmt.Sprintf("%.4f", p.ObliRead.Seconds()),
			fmt.Sprintf("%.4f", p.StegRead.Seconds()),
			fmt.Sprintf("%.1fx", p.Ratio))
	}
	t.Note("working set: %d blocks read through the cache after warm-up", points[0].DistinctBlocks)
	return t, nil
}

// Fig12b reproduces Figure 12(b): the split of the oblivious
// storage's access time into retrieving and sorting overhead. The
// paper measures sorting below 30% despite its larger I/O count,
// because the external sort's I/O is mostly sequential.
func Fig12b(s Scale) (*Table, error) {
	points, err := RunObliSweep(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12b",
		Title:   "Oblivious storage — proportion of access time",
		Columns: []string{"buffer size", "retrieving overhead", "sorting overhead", "sequential share of sort I/O"},
	}
	for _, p := range points {
		t.AddRow(p.Label,
			fmt.Sprintf("%.0f%%", p.RetrieveFrac*100),
			fmt.Sprintf("%.0f%%", p.SortFraction*100),
			fmt.Sprintf("%.0f%%", p.ShuffleSeqShare*100))
	}
	return t, nil
}
