package prng

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewFromUint64(42)
	b := NewFromUint64(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewFromUint64(1)
	b := NewFromUint64(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("independent streams collided %d times in 64 draws", same)
	}
}

func TestReadExactLengths(t *testing.T) {
	p := NewFromUint64(7)
	for _, n := range []int{0, 1, 7, 31, 32, 33, 64, 100, 4096} {
		b := make([]byte, n)
		got, err := p.Read(b)
		if err != nil || got != n {
			t.Fatalf("Read(%d) = %d, %v", n, got, err)
		}
	}
}

func TestReadMatchesBytesAcrossSplits(t *testing.T) {
	// Reading 64 bytes in one call must equal reading the same stream
	// in odd-sized chunks.
	a := NewFromUint64(9)
	b := NewFromUint64(9)
	one := a.Bytes(64)
	var parts []byte
	for _, n := range []int{1, 3, 5, 7, 11, 13, 24} {
		parts = append(parts, b.Bytes(n)...)
	}
	if !bytes.Equal(one, parts) {
		t.Fatal("chunked reads diverge from bulk read")
	}
}

func TestChildIndependence(t *testing.T) {
	p := NewFromUint64(5)
	c1 := p.Child("alpha")
	c2 := p.Child("beta")
	c1again := p.Child("alpha")
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("same-label children must agree")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("different-label children should not collide")
	}
	// Deriving children must not consume the parent stream.
	q := NewFromUint64(5)
	if p.Uint64() != q.Uint64() {
		t.Fatal("Child consumed parent stream")
	}
}

func TestUint64nBounds(t *testing.T) {
	p := NewFromUint64(11)
	for _, n := range []uint64{1, 2, 3, 10, 255, 256, 1 << 40, math.MaxUint64} {
		for i := 0; i < 200; i++ {
			if v := p.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromUint64(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for Intn(%d)", n)
				}
			}()
			NewFromUint64(1).Intn(n)
		}()
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// 10 bins, 100k draws. Chi-square with 9 degrees of freedom:
	// critical value at p=0.001 is 27.88.
	p := NewFromUint64(123)
	const bins, draws = 10, 100000
	var counts [bins]int
	for i := 0; i < draws; i++ {
		counts[p.Intn(bins)]++
	}
	expected := float64(draws) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-square %.2f exceeds 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	p := NewFromUint64(77)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v deviates from 0.5", mean)
	}
}

// TestPermIsPermutation: ShuffleInts over [0, n) leaves a permutation
// of it.
func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		NewFromUint64(seed).ShuffleInts(perm)
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(perm) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleUniform(t *testing.T) {
	// Every permutation of 3 elements should appear ~1/6 of the time.
	p := NewFromUint64(99)
	counts := map[[3]int]int{}
	const trials = 60000
	for i := 0; i < trials; i++ {
		s := []int{0, 1, 2}
		p.ShuffleInts(s)
		counts[[3]int{s[0], s[1], s[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 permutations, got %d", len(counts))
	}
	for perm, c := range counts {
		ratio := float64(c) / (trials / 6.0)
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("permutation %v frequency off: %v", perm, ratio)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	p := NewFromUint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Uint64()
	}
}

func BenchmarkRead4K(b *testing.B) {
	p := NewFromUint64(1)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		p.Read(buf)
	}
}

// TestReadGoldenPin holds the decision stream — every block pick,
// shuffle and IV in the system — to the bytes it produced before the
// filler stream existed: the first 96 bytes for a fixed seed, taken
// from the commit that introduced Fill's parent, with Fill calls
// interleaved to show they consume none of it.
func TestReadGoldenPin(t *testing.T) {
	const golden = "8e184a71340a3bbb2d85800a0c99eff2b3f234ac788b5cc7cadb0a0e5591c516" +
		"01f422d334fb626ac2a5e098fe8b59d491bd8a8c35c215026c1fb4d90a8ee848" +
		"a2dca9c0db4fb6cdc2a6543ebaf5e771224c4accd14fef5182724dacafd5e3f8"
	p := New([]byte("prng-golden-pin"))
	var got []byte
	for _, n := range []int{5, 27, 32, 1, 31} {
		p.Fill(make([]byte, 100))
		got = append(got, p.Bytes(n)...)
	}
	if hex.EncodeToString(got) != golden {
		t.Fatalf("decision stream moved:\n got %x\nwant %s", got, golden)
	}
	if c := p.Child("x").Bytes(16); hex.EncodeToString(c) != "f84151423d165ea6ebc4edb035ee5807" {
		t.Fatalf("child stream moved: %x", c)
	}
}

// TestFillIsPositionAddressedCTR: Fill is AES-256-CTR under
// SHA-256(seed ‖ 0xB7) with a zero initial counter — checked against
// crypto/cipher — and Fill(a);Fill(b) is Fill(a‖b) however the calls
// cut the stream.
func TestFillIsPositionAddressedCTR(t *testing.T) {
	seed := []byte("fill-stream")
	const total = 2*4096 + 33
	one := make([]byte, total)
	New(seed).Fill(one)

	h := sha256.Sum256(seed)
	key := sha256.Sum256(append(h[:], 0xB7))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(want, want)
	if !bytes.Equal(one, want) {
		t.Fatal("Fill differs from cipher.NewCTR under SHA-256(seed ‖ 0xB7)")
	}

	p := New(seed)
	var parts []byte
	for _, n := range []int{1, 15, 16, 17, 0, 4096, 333, 3700} {
		b := make([]byte, n)
		p.Fill(b)
		parts = append(parts, b...)
	}
	rest := make([]byte, total-len(parts))
	p.Fill(rest)
	if !bytes.Equal(append(parts, rest...), one) {
		t.Fatal("chunked Fill diverges from one Fill")
	}

	// Independent of the decision stream and of sibling generators.
	a, b := make([]byte, 64), make([]byte, 64)
	New(seed).Read(a)
	if bytes.Equal(a, one[:64]) {
		t.Fatal("Fill repeats the decision stream")
	}
	root := New(seed)
	root.Child("a").Fill(a)
	root.Child("b").Fill(b)
	if bytes.Equal(a, b) || bytes.Equal(a, one[:64]) {
		t.Fatal("children share a filler stream")
	}
}

// TestFillZeroAlloc: a 4 KiB refill allocates nothing once the stream
// is keyed — the cover-burst path runs it tens of thousands of times a
// second.
func TestFillZeroAlloc(t *testing.T) {
	p := NewFromUint64(1)
	buf := make([]byte, 4096)
	p.Fill(buf)
	if a := testing.AllocsPerRun(100, func() { p.Fill(buf) }); a > 0 {
		t.Fatalf("Fill(4 KiB) allocates %.1f per op, want 0", a)
	}
}
