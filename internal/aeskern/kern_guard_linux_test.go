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
// destination likewise. The 512-bit decrypt's IV lane and the
// eight-lane gather read 64-byte windows that reach past a block; only
// their masked-off bytes may lie in the guard, and those must not be
// read. A stray read faults instead of passing on lucky bytes.
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
}
