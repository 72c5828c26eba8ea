package aeskern

import (
	"bytes"
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// guarded maps one read-write page between two inaccessible ones, so a
// kernel that touches a byte before or after it faults.
func guarded(t *testing.T) []byte {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) }) //nolint:errcheck // test teardown
	for _, g := range [][]byte{mem[:page], mem[2*page:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return mem[page : 2*page : 2*page]
}

// TestKernelStaysInBounds puts every source flush against a guard page,
// first at the page's start and then at its end, and every keystream
// destination likewise, and GMAC data starts at the first guard and
// ends at the second, at lengths around the GHASH kernel's 64-byte
// masked loads and 512-byte groups. The 512-bit decrypt's IV lane, the
// eight-lane gather and the GHASH tail read 64-byte windows that reach
// past their data; only their masked-off bytes may lie in the guard,
// and those must not be read. A stray read faults instead of passing
// on lucky bytes.
func TestKernelStaysInBounds(t *testing.T) { tiers(t, testStaysInBounds) }

func testStaysInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	page := guarded(t)
	r.Read(page)
	const n = 4080
	for _, src := range [][]byte{page[:n:n], page[len(page)-n:]} {
		key := randKey(r)
		ks := NewSchedule(key)
		iv := unaligned(r, BlockSize)

		dst := make([]byte, n)
		if err := ks.DecryptCBC(dst, src, iv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, refDecrypt(key, iv, src)) {
			t.Fatal("decrypt against a guard page differs")
		}

		var batch [MaxLanes]Lane
		for i := range batch {
			batch[i] = Lane{Key: ks, Dst: make([]byte, n), Src: src, IV: iv}
		}
		if err := EncryptCBC(batch[:]); err != nil {
			t.Fatal(err)
		}
		want := refEncrypt(key, iv, src)
		for i := range batch {
			if !bytes.Equal(batch[i].Dst, want) {
				t.Fatalf("encrypt lane %d against a guard page differs", i)
			}
		}

		ks.Keystream(src, 0)
		if !bytes.Equal(src, refKeystream(key, n)) {
			t.Fatal("keystream against a guard page differs")
		}
	}
	gkey := randKey(r)
	g := NewGMAC(gkey)
	iv := new([BlockSize]byte)
	for _, k := range []int{1, 15, 16, 17, 63, 64, 65, 100, 511, 512, 513, 4072, len(page)} {
		for _, data := range [][]byte{page[:k:k], page[len(page)-k:]} {
			if got, want := g.Mask(iv)^g.Hash(data), refGMAC(gkey, iv[:], data); got != want {
				t.Fatalf("GMAC of %d bytes against a guard page differs", k)
			}
		}
	}
}
