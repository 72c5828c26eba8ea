package bitmap

import (
	"testing"
	"testing/quick"

	"steghide/internal/prng"
)

func TestBasicSetClearGet(t *testing.T) {
	b := New(130)
	if b.Count() != 0 || b.Len() != 130 {
		t.Fatal("fresh bitmap not empty")
	}
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 129} {
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported no change", i)
		}
		if b.Set(i) {
			t.Fatalf("double Set(%d) reported change", i)
		}
		if !b.Get(i) {
			t.Fatalf("Get(%d) false after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	for _, i := range []uint64{0, 129} {
		if !b.Clear(i) {
			t.Fatalf("Clear(%d) reported no change", i)
		}
		if b.Clear(i) {
			t.Fatalf("double Clear(%d) reported change", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, f := range map[string]func(){
		"Get":   func() { b.Get(10) },
		"Set":   func() { b.Set(11) },
		"Clear": func() { b.Clear(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNextClearNextSet(t *testing.T) {
	b := New(200)
	b.SetRange(0, 64) // fill first word exactly
	b.Set(70)
	if idx, ok := b.NextClear(0); !ok || idx != 64 {
		t.Fatalf("NextClear(0) = %d,%v want 64", idx, ok)
	}
	if idx, ok := b.NextClear(70); !ok || idx != 71 {
		t.Fatalf("NextClear(70) = %d,%v want 71", idx, ok)
	}
	if _, ok := b.NextClear(200); ok {
		t.Fatal("NextClear(len) should fail")
	}
	full := New(65)
	full.SetRange(0, 65)
	if _, ok := full.NextClear(0); ok {
		t.Fatal("NextClear on full bitmap should fail")
	}
}

func TestReset(t *testing.T) {
	b := New(130)
	b.SetRange(60, 70)
	b.Reset()
	if b.Count() != 0 || b.Len() != 130 {
		t.Fatalf("after Reset: count %d, len %d", b.Count(), b.Len())
	}
	for i := uint64(0); i < b.Len(); i++ {
		if b.Get(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
	if !b.Set(129) || b.Count() != 1 {
		t.Fatal("bitmap unusable after Reset")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := prng.NewFromUint64(4)
	for _, n := range []uint64{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Bitmap
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.Len() != b.Len() || got.Count() != b.Count() {
			t.Fatalf("n=%d: len/count mismatch after roundtrip", n)
		}
		for i := uint64(0); i < n; i++ {
			if got.Get(i) != b.Get(i) {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var b Bitmap
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated accepted")
	}
	src := New(10)
	data, _ := src.MarshalBinary()
	if err := b.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("short body accepted")
	}
	// Stray bits beyond the declared length must be rejected.
	data[8+7] |= 0x80 // bit 63 of word 0, beyond n=10... set high bit
	bad := append([]byte(nil), data...)
	bad[8] |= 0xFF // bits 56..63 within big-endian word layout
	if err := b.UnmarshalBinary(bad); err == nil {
		t.Fatal("stray bits accepted")
	}
}

func TestQuickCountMatchesNaive(t *testing.T) {
	f := func(seed uint64, nSmall uint8) bool {
		n := uint64(nSmall) + 1
		rng := prng.NewFromUint64(seed)
		b := New(n)
		naive := 0
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
				naive++
			}
		}
		return b.Count() == uint64(naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNextClearConsistent(t *testing.T) {
	f := func(seed uint64, nSmall uint8, fromSmall uint8) bool {
		n := uint64(nSmall) + 1
		from := uint64(fromSmall) % n
		rng := prng.NewFromUint64(seed)
		b := New(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		idx, ok := b.NextClear(from)
		// Naive scan.
		var nidx uint64
		nok := false
		for i := from; i < n; i++ {
			if !b.Get(i) {
				nidx, nok = i, true
				break
			}
		}
		return ok == nok && (!ok || idx == nidx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
