package aeskern

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"syscall"
	"testing"
)

// guarded maps n read-write pages, each between two inaccessible ones,
// so a kernel that touches a byte before or after one faults.
func guarded(t *testing.T, n int) [][]byte {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (2*n+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) }) //nolint:errcheck // test teardown
	pages := make([][]byte, n)
	for i := 0; i <= n; i++ {
		if err := syscall.Mprotect(mem[2*i*page:(2*i+1)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		if i < n {
			pages[i] = mem[(2*i+1)*page : (2*i+2)*page : (2*i+2)*page]
		}
	}
	return pages
}

// TestKernelStaysInBounds puts every source flush against a guard page,
// first at the page's start and then at its end, and every keystream
// destination likewise, and GMAC data starts at the first guard and
// ends at the second, at lengths around the GHASH kernel's 64-byte
// masked loads and 512-byte groups. The 512-bit decrypt's IV lane, the
// eight-lane gather and the GHASH tail read 64-byte windows that reach
// past their data; only their masked-off bytes may lie in the guard,
// and those must not be read. The sixteen-lane kernel addresses its
// trailing half 512 bytes low: nine to sixteen lanes under one key,
// each lane's source and destination on a page of its own, flush
// against its start and then its end, in place and apart, at and
// just below the kernel's minimum length. A stray read faults instead
// of passing on lucky bytes.
func TestKernelStaysInBounds(t *testing.T) { tiers(t, testStaysInBounds) }

func testStaysInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	page := guarded(t, 1)[0]
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
	wide := guarded(t, 2*WideLanes)
	key := randKey(r)
	ks := NewSchedule(key)
	keys := slices.Repeat([]*[KeySize]byte{key}, WideLanes)
	for _, n := range wideLengths {
		for _, atEnd := range []bool{false, true} {
			for _, inPlace := range []bool{false, true} {
				for _, lanes := range []int{9, WideLanes} {
					batch := make([]Lane, lanes)
					for i := range batch {
						src, dst := wide[i][:n:n], wide[WideLanes+i][:n:n]
						if atEnd {
							src, dst = wide[i][len(page)-n:], wide[WideLanes+i][len(page)-n:]
						}
						r.Read(src)
						if inPlace {
							dst = src
						}
						batch[i] = Lane{Key: ks, Dst: dst, Src: src, IV: unaligned(r, BlockSize)}
					}
					checkEncrypt(t, batch, keys, fmt.Sprintf("%d lanes of %d bytes against guard pages, at end %v, in place %v", lanes, n, atEnd, inPlace))
				}
			}
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
