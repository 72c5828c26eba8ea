package attack

import (
	"slices"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
)

func TestUpdateAnalyzerDiff(t *testing.T) {
	const bs, n = 64, 32
	u := NewUpdateAnalyzer(bs, n)
	vol := make([]byte, bs*n)
	if err := u.Observe(vol); err != nil {
		t.Fatal(err)
	}
	if u.Intervals() != 0 {
		t.Fatal("baseline snapshot counted as interval")
	}
	vol[5*bs] ^= 1
	vol[9*bs+63] ^= 1
	if err := u.Observe(vol); err != nil {
		t.Fatal(err)
	}
	if u.Intervals() != 1 {
		t.Fatal("interval not recorded")
	}
	got := u.ChangedBlocks()
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("changed = %v", got)
	}
	if err := u.Observe(vol[:10]); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

func TestSpatialUniformityDetectsHotFile(t *testing.T) {
	// A 2048-block volume where only blocks 100..139 ever change —
	// the in-place StegFS signature. Must be detected.
	const bs, n = 16, 2048
	u := NewUpdateAnalyzer(bs, n)
	vol := make([]byte, bs*n)
	rng := prng.NewFromUint64(1)
	u.Observe(vol)
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			b := 100 + rng.Intn(40)
			vol[b*bs] ^= byte(1 + rng.Intn(255))
		}
		u.Observe(vol)
	}
	v, err := u.SpatialUniformity(16)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected {
		t.Fatalf("hot file not detected: %+v", v)
	}
}

func TestSpatialUniformityAcceptsUniform(t *testing.T) {
	const bs, n = 16, 2048
	u := NewUpdateAnalyzer(bs, n)
	vol := make([]byte, bs*n)
	rng := prng.NewFromUint64(2)
	u.Observe(vol)
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			b := rng.Intn(n)
			vol[b*bs] ^= byte(1 + rng.Intn(255))
		}
		u.Observe(vol)
	}
	v, err := u.SpatialUniformity(16)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Fatalf("uniform changes flagged: %+v", v)
	}
}

func TestHotSetStability(t *testing.T) {
	const bs, n = 16, 256
	// Stable hot set: same 10 blocks change every interval.
	u := NewUpdateAnalyzer(bs, n)
	vol := make([]byte, bs*n)
	u.Observe(vol)
	for round := 0; round < 10; round++ {
		for b := 20; b < 30; b++ {
			vol[b*bs] ^= byte(round + 1)
		}
		u.Observe(vol)
	}
	mean, v, err := u.HotSetStability(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected || mean < 0.99 {
		t.Fatalf("stable hot set missed: mean=%v %+v", mean, v)
	}

	// Shifting set: disjoint blocks each interval.
	u2 := NewUpdateAnalyzer(bs, n)
	vol2 := make([]byte, bs*n)
	u2.Observe(vol2)
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			b := (round*10 + i) % n
			vol2[b*bs] ^= byte(round + 1)
		}
		u2.Observe(vol2)
	}
	mean2, v2, err := u2.HotSetStability(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Detected || mean2 > 0.01 {
		t.Fatalf("shifting set flagged: mean=%v %+v", mean2, v2)
	}

	if _, _, err := NewUpdateAnalyzer(bs, n).HotSetStability(0.5); err == nil {
		t.Fatal("stability with no intervals accepted")
	}
}

func TestRepeatedReads(t *testing.T) {
	ta := NewTrafficAnalyzer(100)
	events := []blockdev.Event{
		{Seq: 1, Op: blockdev.OpRead, Block: 5},
		{Seq: 2, Op: blockdev.OpRead, Block: 5},
		{Seq: 3, Op: blockdev.OpRead, Block: 5},
		{Seq: 4, Op: blockdev.OpRead, Block: 9},
		{Seq: 5, Op: blockdev.OpWrite, Block: 9},
	}
	repeats, distinct := ta.RepeatedReads(events)
	if repeats != 2 || distinct != 2 {
		t.Fatalf("repeats=%d distinct=%d", repeats, distinct)
	}
}

func TestFrequencySkew(t *testing.T) {
	ta := NewTrafficAnalyzer(1024)
	rng := prng.NewFromUint64(3)
	var uniform, hot []blockdev.Event
	for i := 0; i < 8000; i++ {
		uniform = append(uniform, blockdev.Event{Op: blockdev.OpRead, Block: rng.Uint64n(1024)})
		b := rng.Uint64n(1024)
		if i%2 == 0 {
			b = 10 + rng.Uint64n(16) // hot range
		}
		hot = append(hot, blockdev.Event{Op: blockdev.OpRead, Block: b})
	}
	v, err := ta.FrequencySkew(uniform, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Fatalf("uniform traffic flagged: %+v", v)
	}
	v, err = ta.FrequencySkew(hot, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected {
		t.Fatalf("hot traffic missed: %+v", v)
	}
	if _, err := ta.FrequencySkew(nil, 16); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestCompareStreams(t *testing.T) {
	rng := prng.NewFromUint64(4)
	var idle, same, skew []uint64
	for i := 0; i < 20000; i++ {
		idle = append(idle, rng.Uint64n(512))
		same = append(same, rng.Uint64n(512))
		skew = append(skew, rng.Uint64n(256))
	}
	v, err := CompareStreams(idle, same, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Fatalf("identical distributions flagged: %+v", v)
	}
	v, err = CompareStreams(idle, skew, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected {
		t.Fatalf("skewed workload missed: %+v", v)
	}
}

func TestCompareStreamsK(t *testing.T) {
	rng := prng.NewFromUint64(5)
	uniform := make([][]uint64, 6)
	for i := range uniform {
		for j := 0; j < 8000; j++ {
			uniform[i] = append(uniform[i], rng.Uint64n(512))
		}
	}
	v, err := CompareStreamsK(uniform, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Fatalf("homogeneous periods flagged: %+v", v)
	}

	// One anomalous period among six: the slicing attack 2-snapshot
	// CompareStreams cannot mount.
	mixed := make([][]uint64, 6)
	for i := range mixed {
		for j := 0; j < 8000; j++ {
			b := rng.Uint64n(512)
			if i == 4 {
				b = rng.Uint64n(256)
			}
			mixed[i] = append(mixed[i], b)
		}
	}
	v, err = CompareStreamsK(mixed, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected {
		t.Fatalf("anomalous period missed: %+v", v)
	}

	if _, err := CompareStreamsK(mixed[:1], 512, 16); err == nil {
		t.Fatal("single stream accepted")
	}
}

func TestSnapshotHomogeneity(t *testing.T) {
	const bs, n = 16, 2048
	rng := prng.NewFromUint64(6)

	// Uniform relocation: every interval is an independent uniform
	// draw — homogeneous.
	u := NewUpdateAnalyzer(bs, n)
	vol := make([]byte, bs*n)
	u.Observe(vol)
	for round := 0; round < 8; round++ {
		for i := 0; i < 200; i++ {
			b := rng.Intn(n)
			vol[b*bs] ^= byte(1 + rng.Intn(255))
		}
		u.Observe(vol)
	}
	v, err := u.SnapshotHomogeneity(8)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Fatalf("uniform intervals flagged: %+v", v)
	}

	// Phase change: intervals 0-3 uniform, 4-7 confined to the lower
	// quarter — an in-place system whose workload shifted.
	u2 := NewUpdateAnalyzer(bs, n)
	vol2 := make([]byte, bs*n)
	u2.Observe(vol2)
	for round := 0; round < 8; round++ {
		for i := 0; i < 200; i++ {
			b := rng.Intn(n)
			if round >= 4 {
				b = rng.Intn(n / 4)
			}
			vol2[b*bs] ^= byte(1 + rng.Intn(255))
		}
		u2.Observe(vol2)
	}
	v, err = u2.SnapshotHomogeneity(8)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected {
		t.Fatalf("phase change missed: %+v", v)
	}

	if _, err := NewUpdateAnalyzer(bs, n).SnapshotHomogeneity(8); err == nil {
		t.Fatal("no-interval analyzer accepted")
	}
}

func TestCallShape(t *testing.T) {
	// Ring slots 1..3 as one ranged write, a scattered read and write of
	// three steg-space blocks, then a lone interleaved triple.
	events := []blockdev.Event{
		{Op: blockdev.OpWrite, Block: 1, Count: 3},
		{Op: blockdev.OpRead, Block: 40}, {Op: blockdev.OpRead, Block: 12}, {Op: blockdev.OpRead, Block: 77},
		{Op: blockdev.OpWrite, Block: 40}, {Op: blockdev.OpWrite, Block: 12}, {Op: blockdev.OpWrite, Block: 77},
		{Op: blockdev.OpWrite, Block: 4}, {Op: blockdev.OpRead, Block: 9}, {Op: blockdev.OpWrite, Block: 9},
	}
	want := []Shape{
		{blockdev.OpWrite, true, 3}, {blockdev.OpRead, false, 3}, {blockdev.OpWrite, false, 3},
		{blockdev.OpWrite, true, 1}, {blockdev.OpRead, false, 1}, {blockdev.OpWrite, false, 1},
	}
	if got := CallShape(events, 8); !slices.Equal(got, want) {
		t.Fatalf("CallShape = %+v, want %+v", got, want)
	}
}
