//go:build !purego

package aeskern

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// vaes512Detected and ghash512Detected are the tier decisions made at
// init, which the tier subtests flip and restore.
var (
	vaes512Detected  = hasVAES512
	ghash512Detected = hasGHASH512
)

// kernelTiers: the XMM kernels (with GMAC on crypto/cipher), and the
// 512-bit tier where the host has it, its GHASH loop too where the host
// has VPCLMULQDQ. Without AES-NI every call takes the stdlib path.
func kernelTiers() []tier {
	if !hasAESNI {
		return []tier{{name: "noaesni", avail: true, use: func() func() { return func() {} }}}
	}
	set := func(on bool) func() func() {
		return func() func() {
			hasVAES512, hasGHASH512 = on, on && ghash512Detected
			return func() { hasVAES512, hasGHASH512 = vaes512Detected, ghash512Detected }
		}
	}
	return []tier{
		{name: "xmm", avail: true, use: set(false)},
		{name: "vaes512", avail: vaes512Detected, use: set(true)},
	}
}

// TestKernelTierDetection holds the CPUID/XGETBV decision to the
// kernel's view of the CPU: the first flags line of /proc/cpuinfo must
// carry avx512f, avx512bw and vaes exactly when the 512-bit tier was
// chosen, and vpclmulqdq besides exactly when its GHASH loop was. A
// detection bug would otherwise drop a tier silently, or run it where
// it raises SIGILL. It logs the tiers the package runs.
func TestKernelTierDetection(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	has := func(f string) bool { return slices.Contains(flags, f) }
	want := has("avx512f") && has("avx512bw") && has("vaes")
	if got := detectVAES512(); got != want {
		t.Fatalf("CPUID/XGETBV chose the 512-bit tier = %v; /proc/cpuinfo avx512f && avx512bw && vaes = %v", got, want)
	}
	if got := hasAESNI && detectVAES512(); vaes512Detected != got {
		t.Fatalf("init decided hasVAES512 = %v, detection now says %v", vaes512Detected, got)
	}
	if wantGHASH := vaes512Detected && has("vpclmulqdq"); ghash512Detected != wantGHASH {
		t.Fatalf("init decided hasGHASH512 = %v; 512-bit tier && /proc/cpuinfo vpclmulqdq = %v", ghash512Detected, wantGHASH)
	}
	if ghash512Detected {
		t.Log("GHASH tier: vpclmulqdq (ZMM, 32 blocks per group)")
	} else {
		t.Log("GHASH tier: stdlib (crypto/cipher GCM)")
	}
	switch {
	case vaes512Detected:
		t.Log("kernel tier: vaes512 (ZMM; xmm under 32 blocks and for one lane)")
	case hasAESNI:
		t.Log("kernel tier: xmm")
	default:
		t.Log("kernel tier: stdlib (no AES-NI)")
	}
}

// sbox computes the AES S-box from its definition (FIPS-197 5.1.1):
// the multiplicative inverse in GF(2^8) followed by the affine map.
func sbox() (s [256]byte) {
	mul := func(a, b byte) (p byte) {
		for ; b != 0; b >>= 1 {
			if b&1 != 0 {
				p ^= a
			}
			hi := a & 0x80
			a <<= 1
			if hi != 0 {
				a ^= 0x1b
			}
		}
		return p
	}
	for x := 0; x < 256; x++ {
		inv := byte(0)
		for y := 1; y < 256 && x != 0; y++ {
			if mul(byte(x), byte(y)) == 1 {
				inv = byte(y)
				break
			}
		}
		s[x] = inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
			bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
	}
	return s
}

// expandRef is the FIPS-197 5.2 KeyExpansion for Nk = 8, word by word.
func expandRef(key *[KeySize]byte) (out [roundKeyBytes]byte) {
	s := sbox()
	sub := func(w uint32) uint32 {
		return uint32(s[w>>24])<<24 | uint32(s[w>>16&0xff])<<16 | uint32(s[w>>8&0xff])<<8 | uint32(s[w&0xff])
	}
	var w [60]uint32
	for i := 0; i < 8; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := 8; i < 60; i++ {
		t := w[i-1]
		switch i % 8 {
		case 0:
			t = sub(bits.RotateLeft32(t, 8)) ^ rcon<<24
			rcon <<= 1
		case 4:
			t = sub(t)
		}
		w[i] = w[i-8] ^ t
	}
	for i, v := range w {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// TestKernelKeySchedule holds the AESKEYGENASSIST expansion to the
// FIPS-197 A.3 vector and, on random keys, to the word-by-word
// reference; the AESIMC half is pinned at its two untransformed ends
// here and functionally by every decrypt test.
func TestKernelKeySchedule(t *testing.T) {
	if !hasAESNI {
		t.Skip("no AES-NI: the stdlib path expands keys")
	}
	var key [KeySize]byte
	copy(key[:], unhex(t, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"))
	ks := NewSchedule(&key)
	for _, v := range []struct {
		word int
		want string
	}{
		{8, "9ba354118e6925afa51a8b5f2067fcde"},
		{12, "a8b09c1a93d194cdbe49846eb75d5b9a"},
		{56, "fe4890d1e6188d0b046df344706c631e"},
	} {
		if got := ks.enc[4*v.word:][:16]; !bytes.Equal(got, unhex(t, v.want)) {
			t.Errorf("A.3 w[%d..%d] = %x, want %s", v.word, v.word+3, got, v.want)
		}
	}
	r := rand.New(rand.NewSource(11))
	for k := 0; k < 50; k++ {
		key := randKey(r)
		ks := NewSchedule(key)
		if want := expandRef(key); ks.enc != want {
			t.Fatalf("key %d: encryption schedule differs from FIPS-197 expansion", k)
		}
		if !bytes.Equal(ks.dec[:16], ks.enc[224:]) || !bytes.Equal(ks.dec[224:], ks.enc[:16]) {
			t.Fatalf("key %d: decryption schedule ends are not the encryption schedule's, reversed", k)
		}
	}
}
