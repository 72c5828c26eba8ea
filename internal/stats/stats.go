// Package stats provides the statistical machinery used to test the
// paper's security definition (Definition 1, §3.2.4): a construction
// is secure when the distribution of observable accesses under a user
// workload, P(X|Y), is indistinguishable from the dummy-only
// distribution, P(X|∅).
//
// The package implements Pearson's chi-square goodness-of-fit and
// homogeneity tests (with p-values via the regularized incomplete
// gamma function) and the two-sample Kolmogorov–Smirnov test, plus
// small summary-statistics helpers used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanDifference is the two-sample z-test on means with unequal
// variances (Welch's statistic under its large-sample normal
// approximation): it returns z and the two-sided p-value for "a and b
// share a mean". Unlike KolmogorovSmirnov it tolerates tied and even
// constant samples — two constant samples are the same distribution
// (p = 1) when the constants agree and different (p = 0) when not.
func MeanDifference(a, b []float64) (z, p float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, fmt.Errorf("stats: samples of %d and %d values", len(a), len(b))
	}
	diff := Mean(a) - Mean(b)
	se := math.Sqrt(Variance(a)/float64(len(a)) + Variance(b)/float64(len(b)))
	if se == 0 {
		if diff == 0 {
			return 0, 1, nil
		}
		return math.Inf(int(math.Copysign(1, diff))), 0, nil
	}
	z = diff / se
	return z, math.Erfc(math.Abs(z) / math.Sqrt2), nil
}

// ChiSquareUniform tests the hypothesis that counts were drawn from a
// uniform distribution over the bins. It returns the chi-square
// statistic and its p-value (k−1 degrees of freedom). Small p-values
// reject uniformity.
func ChiSquareUniform(counts []uint64) (stat, p float64, err error) {
	k := len(counts)
	if k < 2 {
		return 0, 0, fmt.Errorf("stats: need at least 2 bins, have %d", k)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("stats: no observations")
	}
	expected := float64(total) / float64(k)
	if expected < 5 {
		return 0, 0, fmt.Errorf("stats: expected count per bin %.2f < 5; use fewer bins", expected)
	}
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat, ChiSquareSurvival(stat, float64(k-1)), nil
}

// ChiSquareTwoSample tests homogeneity of two categorical samples
// (do a and b come from the same distribution?). a and b are counts
// over the same bins. Bins empty in both samples are ignored.
func ChiSquareTwoSample(a, b []uint64) (stat, p float64, err error) {
	return ChiSquareKSample(a, b)
}

// ChiSquareKSample tests homogeneity of k categorical samples over
// the same bins: the chi-square test of a k×bins contingency table,
// with (k−1)·(bins'−1) degrees of freedom where bins' counts only the
// bins some sample populated. It generalizes ChiSquareTwoSample — the
// k-snapshot adversary's primitive: an attacker holding k snapshots
// diffs them into k−1 changed-block samples and asks whether any
// interval's distribution stands out from the rest.
func ChiSquareKSample(samples ...[]uint64) (stat, p float64, err error) {
	if len(samples) < 2 {
		return 0, 0, fmt.Errorf("stats: need at least 2 samples, have %d", len(samples))
	}
	bins := len(samples[0])
	totals := make([]uint64, len(samples))
	var grand uint64
	for i, s := range samples {
		if len(s) != bins {
			return 0, 0, fmt.Errorf("stats: bin count mismatch %d != %d", len(s), bins)
		}
		for _, c := range s {
			totals[i] += c
		}
		if totals[i] == 0 {
			return 0, 0, fmt.Errorf("stats: empty sample")
		}
		grand += totals[i]
	}
	n := float64(grand)
	populated := 0
	for j := 0; j < bins; j++ {
		var col uint64
		for _, s := range samples {
			col += s[j]
		}
		if col == 0 {
			continue
		}
		populated++
		for i, s := range samples {
			e := float64(col) * float64(totals[i]) / n
			d := float64(s[j]) - e
			stat += d * d / e
		}
	}
	if populated < 2 {
		return 0, 0, fmt.Errorf("stats: fewer than 2 non-empty bins")
	}
	df := float64(len(samples)-1) * float64(populated-1)
	return stat, ChiSquareSurvival(stat, df), nil
}

// ChiSquareSurvival returns P[X > x] for a chi-square distribution
// with df degrees of freedom: Q(df/2, x/2), the upper regularized
// incomplete gamma function.
func ChiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return regIncGammaUpper(df/2, x/2)
}

// regIncGammaUpper computes Q(a, x) = Γ(a,x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction otherwise
// (Numerical Recipes, §6.2).
func regIncGammaUpper(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gser(a, x)
	}
	return gcf(a, x)
}

// gser computes P(a,x) by series expansion.
func gser(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gcf computes Q(a,x) by Lentz's continued-fraction method.
func gcf(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// KolmogorovSmirnov performs the two-sample KS test on real-valued
// samples a and b, returning the D statistic and its asymptotic
// p-value. Small p-values reject "same distribution".
func KolmogorovSmirnov(a, b []float64) (d, p float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("stats: empty sample")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	na, nb := float64(len(as)), float64(len(bs))
	var i, j int
	for i < len(as) && j < len(bs) {
		if as[i] <= bs[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	ne := na * nb / (na + nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return d, ksProb(lambda), nil
}

// ksProb is the Kolmogorov distribution tail Q_KS(λ).
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j)*float64(j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// Histogram bins the values [0, n) from xs into `bins` equal-width
// bins and returns the counts. Values outside [0, n) are dropped.
func Histogram(xs []uint64, n uint64, bins int) []uint64 {
	counts := make([]uint64, bins)
	if n == 0 || bins <= 0 {
		return counts
	}
	for _, x := range xs {
		if x >= n {
			continue
		}
		b := int(x * uint64(bins) / n)
		if b >= bins { // guard against rounding at the top edge
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}
