package diskmodel

import (
	"testing"
	"time"

	"steghide/internal/prng"
)

func testParams() Params { return Params2004(1<<18, 4096) } // 1 GB volume

func TestValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Params){
		"zero block":    func(p *Params) { p.BlockSize = 0 },
		"zero nblocks":  func(p *Params) { p.NumBlocks = 0 },
		"zero rate":     func(p *Params) { p.TransferRate = 0 },
		"inverted seek": func(p *Params) { p.MaxSeek = p.TrackToTrackSeek - 1 },
	} {
		p := testParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if _, err := New(p); err == nil {
			t.Fatalf("%s: New accepted bad params", name)
		}
	}
}

func TestSequentialVsRandomGap(t *testing.T) {
	p := testParams()
	d := MustNew(p)
	d.Access(1000, false) // position the head
	seq := d.Access(1001, false)
	rnd := d.Access(200000, false)
	if seq >= rnd {
		t.Fatalf("sequential %v not cheaper than random %v", seq, rnd)
	}
	// The paper-era gap is roughly two orders of magnitude.
	if ratio := float64(rnd) / float64(seq); ratio < 20 {
		t.Fatalf("random/sequential ratio %.1f too small to reproduce the figures", ratio)
	}
	if seq != p.TransferTime() {
		t.Fatalf("sequential access should cost exactly transfer time: %v != %v", seq, p.TransferTime())
	}
}

func TestRandomAccessCostInPaperRange(t *testing.T) {
	// The paper's numbers imply ≈10–15 ms per random 4 KB access
	// (e.g. Fig. 10a: ~25–30 s to read a 10 MB file block-by-block).
	d := MustNew(testParams())
	rng := prng.NewFromUint64(1)
	var total time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		total += d.Access(rng.Uint64n(d.Params().NumBlocks), false)
	}
	avg := total / n
	if avg < 8*time.Millisecond || avg > 18*time.Millisecond {
		t.Fatalf("average random access %v outside 2004-era range", avg)
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	p := testParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	last := time.Duration(0)
	for _, d := range []uint64{1, 10, 100, 1000, 10000, 100000, p.NumBlocks} {
		s := p.SeekTime(d)
		if s < last {
			t.Fatalf("seek time not monotone at distance %d", d)
		}
		last = s
	}
	if last > p.MaxSeek {
		t.Fatalf("full-stroke seek %v exceeds MaxSeek %v", last, p.MaxSeek)
	}
}

func TestClockAndStats(t *testing.T) {
	d := MustNew(testParams())
	var sum time.Duration
	sum += d.Access(5, false)
	sum += d.Access(6, true)
	sum += d.Access(7, false)
	if d.Now() != sum {
		t.Fatalf("clock %v != sum of services %v", d.Now(), sum)
	}
	st := d.Stats()
	if st.Accesses != 3 || st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("bad counts: %+v", st)
	}
	if st.Sequential != 2 {
		t.Fatalf("expected 2 sequential accesses, got %d", st.Sequential)
	}
	if st.BusyTime != sum || st.SeekTime+st.TransferTime != sum {
		t.Fatalf("time accounting inconsistent: %+v", st)
	}
	d.ResetStats()
	if d.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if d.Now() != sum {
		t.Fatal("ResetStats moved the clock")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := MustNew(testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Access(d.Params().NumBlocks, false)
}

func TestLastBlockAccess(t *testing.T) {
	d := MustNew(testParams())
	n := d.Params().NumBlocks
	d.Access(n-1, false) // head would pass the end; must not panic later
	d.Access(n-1, false)
	d.Access(0, false)
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		d := MustNew(testParams())
		rng := prng.NewFromUint64(99)
		for i := 0; i < 500; i++ {
			d.Access(rng.Uint64n(d.Params().NumBlocks), i%2 == 0)
		}
		return d.Now()
	}
	if run() != run() {
		t.Fatal("virtual clock not deterministic")
	}
}

func TestInterleavingDestroysSequentiality(t *testing.T) {
	// Two workers each reading 1000 contiguous blocks: alone, nearly
	// free; interleaved through one head, every access seeks. This is
	// the mechanism behind Fig. 10b.
	p := testParams()
	alone := MustNew(p)
	for i := uint64(0); i < 1000; i++ {
		alone.Access(i, false)
	}
	soloTime := alone.Now()

	shared := MustNew(p)
	for i := uint64(0); i < 1000; i++ {
		shared.Access(i, false)        // worker A at the start
		shared.Access(100000+i, false) // worker B far away
	}
	perWorker := shared.Now() / 2
	if perWorker < 50*soloTime {
		t.Fatalf("interleaving should dominate: solo %v vs shared-per-worker %v", soloTime, perWorker)
	}
}
