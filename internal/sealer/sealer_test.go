package sealer

import (
	"bytes"
	"testing"
	"testing/quick"

	"steghide/internal/prng"
)

func mustSealer(t *testing.T, blockSize int) *Sealer {
	t.Helper()
	s, err := New(DeriveKey([]byte("secret"), "test"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	for _, bs := range []int{32, 64, 512, 4096} {
		s := mustSealer(t, bs)
		rng := prng.NewFromUint64(uint64(bs))
		data := rng.Bytes(s.DataSize())
		iv := rng.Bytes(IVSize)
		raw := make([]byte, bs)
		if err := s.Seal(raw, iv, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, s.DataSize())
		if err := s.Open(got, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("bs=%d: roundtrip mismatch", bs)
		}
	}
}

func TestBadBlockSizes(t *testing.T) {
	key := DeriveKey([]byte("k"), "x")
	for _, bs := range []int{0, 8, 16, 17, 30, 31, 33} {
		if _, err := New(key, bs); err == nil {
			t.Fatalf("New(%d) should fail", bs)
		}
	}
}

func TestSealRejectsBadLengths(t *testing.T) {
	s := mustSealer(t, 64)
	good := make([]byte, 64)
	iv := make([]byte, IVSize)
	data := make([]byte, s.DataSize())
	if err := s.Seal(good[:63], iv, data); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := s.Seal(good, iv[:8], data); err == nil {
		t.Fatal("short iv accepted")
	}
	if err := s.Seal(good, iv, data[:1]); err == nil {
		t.Fatal("short data accepted")
	}
	if err := s.Open(data[:8], good); err == nil {
		t.Fatal("short open dst accepted")
	}
	if err := s.Open(data, good[:8]); err == nil {
		t.Fatal("short raw accepted")
	}
}

func TestResealChangesEveryByteButNotPlaintext(t *testing.T) {
	s := mustSealer(t, 4096)
	rng := prng.NewFromUint64(3)
	data := rng.Bytes(s.DataSize())
	raw := make([]byte, 4096)
	if err := s.Seal(raw, rng.Bytes(IVSize), data); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), raw...)
	if err := ResealLanes([]*Sealer{s}, [][]byte{raw}, rng.Bytes(IVSize)); err != nil {
		t.Fatal(err)
	}
	// Plaintext must be preserved.
	got := make([]byte, s.DataSize())
	if err := s.Open(got, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reseal corrupted plaintext")
	}
	// The ciphertext should look completely different: with CBC under a
	// fresh IV, matching 16-byte cipher blocks are overwhelmingly
	// unlikely.
	same := 0
	for i := 0; i+16 <= len(raw); i += 16 {
		if bytes.Equal(before[i:i+16], raw[i:i+16]) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d cipher blocks unchanged after reseal", same)
	}
}

func TestDeriveKeyIndependence(t *testing.T) {
	a := DeriveKey([]byte("s"), "one")
	b := DeriveKey([]byte("s"), "two")
	c := DeriveKey([]byte("other"), "one")
	if a == b || a == c || b == c {
		t.Fatal("derived keys collided")
	}
	if a != DeriveKey([]byte("s"), "one") {
		t.Fatal("derivation not deterministic")
	}
}

func TestKeyFromPassphrase(t *testing.T) {
	k1 := KeyFromPassphrase("hunter2", []byte("salt"), 100)
	k2 := KeyFromPassphrase("hunter2", []byte("salt"), 100)
	if k1 != k2 {
		t.Fatal("not deterministic")
	}
	if k1 == KeyFromPassphrase("hunter2", []byte("pepper"), 100) {
		t.Fatal("salt ignored")
	}
	if k1 == KeyFromPassphrase("hunter3", []byte("salt"), 100) {
		t.Fatal("passphrase ignored")
	}
	if k1 == KeyFromPassphrase("hunter2", []byte("salt"), 101) {
		t.Fatal("iterations ignored")
	}
	// Degenerate iteration counts clamp rather than crash.
	_ = KeyFromPassphrase("p", nil, 0)
	_ = KeyFromPassphrase("p", nil, -5)
}

func TestWrongKeyGarbles(t *testing.T) {
	s1 := mustSealer(t, 256)
	s2, err := New(DeriveKey([]byte("different"), "test"), 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(8)
	data := rng.Bytes(s1.DataSize())
	raw := make([]byte, 256)
	if err := s1.Seal(raw, rng.Bytes(IVSize), data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, s2.DataSize())
	if err := s2.Open(got, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("wrong key decrypted correctly?!")
	}
}

func TestChecksumDetectsTamper(t *testing.T) {
	key := DeriveKey([]byte("k"), "chk")
	data := []byte("some header bytes")
	sum := Checksum(key, "hdr", data)
	if sum != Checksum(key, "hdr", data) {
		t.Fatal("not deterministic")
	}
	if sum == Checksum(key, "hdr", []byte("some header bytez")) {
		t.Fatal("tamper not detected")
	}
	if sum == Checksum(key, "other", data) {
		t.Fatal("context ignored")
	}
	if sum == Checksum(DeriveKey([]byte("k2"), "chk"), "hdr", data) {
		t.Fatal("key ignored")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s := mustSealer(t, 128)
	f := func(seed uint64) bool {
		rng := prng.NewFromUint64(seed)
		data := rng.Bytes(s.DataSize())
		raw := make([]byte, 128)
		if err := s.Seal(raw, rng.Bytes(IVSize), data); err != nil {
			return false
		}
		got := make([]byte, s.DataSize())
		if err := s.Open(got, raw); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeal4K(b *testing.B) {
	s, _ := New(DeriveKey([]byte("k"), "b"), 4096)
	rng := prng.NewFromUint64(1)
	data := rng.Bytes(s.DataSize())
	iv := rng.Bytes(IVSize)
	raw := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		s.Seal(raw, iv, data)
	}
}

func BenchmarkReseal4K(b *testing.B) {
	s, _ := New(DeriveKey([]byte("k"), "b"), 4096)
	rng := prng.NewFromUint64(1)
	raw := make([]byte, 4096)
	s.Seal(raw, rng.Bytes(IVSize), rng.Bytes(s.DataSize()))
	seals, raws, iv := []*Sealer{s}, [][]byte{raw}, rng.Bytes(IVSize)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		ResealLanes(seals, raws, iv)
	}
}
