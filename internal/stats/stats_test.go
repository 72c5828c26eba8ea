package stats

import (
	"math"
	"testing"

	"steghide/internal/prng"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v", v)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("stddev %v", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	cases := []struct {
		x, df, want float64
	}{
		{3.84, 1, 0.05},
		{5.99, 2, 0.05},
		{27.88, 9, 0.001},
		{16.92, 9, 0.05},
		{0, 5, 1.0},
	}
	for _, c := range cases {
		got := ChiSquareSurvival(c.x, c.df)
		if math.Abs(got-c.want) > 0.002 {
			t.Fatalf("Q(%v, df=%v) = %v, want ≈%v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquareUniformAcceptsUniform(t *testing.T) {
	rng := prng.NewFromUint64(42)
	counts := make([]uint64, 20)
	for i := 0; i < 100000; i++ {
		counts[rng.Intn(20)]++
	}
	stat, p, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("uniform data rejected: stat=%v p=%v", stat, p)
	}
}

func TestChiSquareUniformRejectsSkew(t *testing.T) {
	counts := make([]uint64, 10)
	for i := range counts {
		counts[i] = 1000
	}
	counts[3] = 2000 // hot bin
	_, p, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("skewed data accepted: p=%v", p)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, _, err := ChiSquareUniform([]uint64{5}); err == nil {
		t.Fatal("single bin accepted")
	}
	if _, _, err := ChiSquareUniform([]uint64{0, 0}); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := ChiSquareUniform([]uint64{1, 2, 1}); err == nil {
		t.Fatal("tiny expected counts accepted")
	}
}

func TestChiSquareTwoSampleSameDistribution(t *testing.T) {
	rng := prng.NewFromUint64(7)
	a := make([]uint64, 16)
	b := make([]uint64, 16)
	for i := 0; i < 50000; i++ {
		a[rng.Intn(16)]++
		b[rng.Intn(16)]++
	}
	_, p, err := ChiSquareTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("same-distribution samples rejected: p=%v", p)
	}
}

func TestChiSquareTwoSampleDifferent(t *testing.T) {
	rng := prng.NewFromUint64(8)
	a := make([]uint64, 16)
	b := make([]uint64, 16)
	for i := 0; i < 50000; i++ {
		a[rng.Intn(16)]++
		b[rng.Intn(8)]++ // b concentrated in the lower half
	}
	_, p, err := ChiSquareTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Fatalf("different distributions accepted: p=%v", p)
	}
}

func TestChiSquareTwoSampleErrors(t *testing.T) {
	if _, _, err := ChiSquareTwoSample([]uint64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("mismatched bins accepted")
	}
	if _, _, err := ChiSquareTwoSample([]uint64{0, 0}, []uint64{1, 1}); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := ChiSquareTwoSample([]uint64{5, 0}, []uint64{7, 0}); err == nil {
		t.Fatal("single non-empty bin accepted")
	}
}

func TestChiSquareKSampleSameDistribution(t *testing.T) {
	rng := prng.NewFromUint64(17)
	samples := make([][]uint64, 5)
	for i := range samples {
		samples[i] = make([]uint64, 16)
		for j := 0; j < 10000; j++ {
			samples[i][rng.Intn(16)]++
		}
	}
	_, p, err := ChiSquareKSample(samples...)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("homogeneous samples rejected: p=%v", p)
	}
}

func TestChiSquareKSampleOneOddSample(t *testing.T) {
	// Four uniform intervals and one concentrated in the lower half —
	// the k-snapshot attacker's win condition: a single anomalous
	// interval among otherwise-uniform diffs must be detected.
	rng := prng.NewFromUint64(18)
	samples := make([][]uint64, 5)
	for i := range samples {
		samples[i] = make([]uint64, 16)
		for j := 0; j < 10000; j++ {
			if i == 3 {
				samples[i][rng.Intn(8)]++
			} else {
				samples[i][rng.Intn(16)]++
			}
		}
	}
	_, p, err := ChiSquareKSample(samples...)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Fatalf("anomalous interval accepted: p=%v", p)
	}
}

func TestChiSquareKSampleMatchesTwoSample(t *testing.T) {
	a := []uint64{120, 80, 95, 105}
	b := []uint64{100, 100, 110, 90}
	s2, p2, err := ChiSquareTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sk, pk, err := ChiSquareKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != sk || p2 != pk {
		t.Fatalf("k=2 diverged from two-sample: (%v,%v) vs (%v,%v)", s2, p2, sk, pk)
	}
}

func TestChiSquareKSampleErrors(t *testing.T) {
	if _, _, err := ChiSquareKSample([]uint64{1, 2}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, _, err := ChiSquareKSample([]uint64{1, 2}, []uint64{1}, []uint64{2, 2}); err == nil {
		t.Fatal("mismatched bins accepted")
	}
	if _, _, err := ChiSquareKSample([]uint64{1, 1}, []uint64{0, 0}, []uint64{1, 1}); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestKolmogorovSmirnovSame(t *testing.T) {
	rng := prng.NewFromUint64(9)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	d, p, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("identical distributions rejected: D=%v p=%v", d, p)
	}
}

func TestKolmogorovSmirnovDifferent(t *testing.T) {
	rng := prng.NewFromUint64(10)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()*0.5 + 0.5 // shifted
	}
	_, p, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Fatalf("shifted distribution accepted: p=%v", p)
	}
	if _, _, err := KolmogorovSmirnov(nil, a); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestHistogram(t *testing.T) {
	xs := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 99, 100}
	h := Histogram(xs, 8, 4) // values ≥ 8 dropped
	want := []uint64{2, 2, 2, 2}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist %v, want %v", h, want)
		}
	}
	if got := Histogram(nil, 0, 4); len(got) != 4 {
		t.Fatal("degenerate histogram")
	}
	// Top-edge value must land in the last bin.
	h2 := Histogram([]uint64{9}, 10, 3)
	if h2[2] != 1 {
		t.Fatalf("edge binning wrong: %v", h2)
	}
}

func TestChiSquareSurvivalDegenerate(t *testing.T) {
	if !math.IsNaN(regIncGammaUpper(-1, 1)) || !math.IsNaN(regIncGammaUpper(1, -1)) {
		t.Fatal("invalid args should give NaN")
	}
	if ChiSquareSurvival(-5, 3) != 1 {
		t.Fatal("negative statistic should give p=1")
	}
}

func TestMeanDifference(t *testing.T) {
	rng := prng.NewFromUint64(31)
	draw := func(n int, shift float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64() + shift
		}
		return out
	}
	if _, p, err := MeanDifference(draw(2000, 0), draw(2000, 0)); err != nil || p < 0.01 {
		t.Fatalf("same distribution: p=%v err=%v", p, err)
	}
	if z, p, err := MeanDifference(draw(2000, 0.1), draw(2000, 0)); err != nil || p > 1e-6 || z <= 0 {
		t.Fatalf("shifted mean: z=%v p=%v err=%v", z, p, err)
	}
	// Constant samples — where the KS implementation's tie handling
	// breaks down — are decided by their constants.
	c := func(v float64) []float64 { return []float64{v, v, v, v} }
	if _, p, _ := MeanDifference(c(1.0024), c(1.0024)); p != 1 {
		t.Fatalf("equal constants: p=%v", p)
	}
	if z, p, _ := MeanDifference(c(1), c(2)); p != 0 || !math.IsInf(z, -1) {
		t.Fatalf("different constants: z=%v p=%v", z, p)
	}
	if _, _, err := MeanDifference([]float64{1}, c(1)); err == nil {
		t.Fatal("one-value sample accepted")
	}
}
