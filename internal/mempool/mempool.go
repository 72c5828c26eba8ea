// Package mempool is the repo-wide memory plane: size-class free
// lists over sync.Pool for transient buffers (wire frame bodies,
// sealed-block slabs) and a bump arena for per-burst scheduler
// scratch. A cross-size return panics instead of silently handing a
// short buffer to a later Get.
//
// Leakage note: pools are keyed by size class only. A buffer's history
// (which request, which file, real or dummy) never influences which
// pool it lands in or which buffer a later request receives, and every
// hot path fully overwrites a buffer before its contents reach the
// wire or the device — so reuse cannot create an observable channel
// beyond the sizes an attacker already sees on the wire. See
// DESIGN.md, "Memory plane".
package mempool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-class geometry: powers of two from minClass to maxClass.
// Requests above maxClass fall through to plain make — huge buffers
// are rare (negotiated wire frames cap batch sizes long before this)
// and pinning them in pools would just hoard memory.
const (
	minClassBits = 6  // 64 B
	maxClassBits = 21 // 2 MiB — covers a full 512-block × 4 KiB wire batch
	numClasses   = maxClassBits - minClassBits + 1

	minClass = 1 << minClassBits
	maxClass = 1 << maxClassBits
)

// poison, when non-zero, is the byte written over every buffer Put
// takes back; see SetPoison.
var poison atomic.Int32

// SetPoison makes Put (and so Recycle) overwrite each buffer it takes
// back with b, and reports the previous setting; 0 turns it off. A test
// hook: a holder that still reads, or has handed to someone else, a
// buffer it returned then meets poison every time, so a broken
// ownership rule fails a test on its own, without the race detector
// having to catch the two accesses in the act.
func SetPoison(b byte) byte { return byte(poison.Swap(int32(b))) }

// classes[i] holds buffers of exactly 1<<(minClassBits+i) capacity.
// Boxed as *[]byte so the pool interface holds a pointer, not a
// slice header copy (which would allocate on every Put).
var classes [numClasses]sync.Pool

// boxes recycles the *[]byte headers themselves: without this, every
// Put would heap-allocate a fresh box for its slice header, putting a
// one-alloc floor under the whole plane. Get empties a box into the
// box pool; Put refills one from it.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the class index whose size is the smallest class
// ≥ n, or -1 if n is zero or above maxClass.
func classFor(n int) int {
	if n <= 0 || n > maxClass {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n), with n=1 -> 0
	if b < minClassBits {
		b = minClassBits
	}
	return b - minClassBits
}

// classSize is the capacity of class index c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// Get returns a buffer of length n. When n fits a size class, the
// buffer comes from (and its capacity is exactly) that class; otherwise
// it is a fresh allocation. Contents are NOT zeroed — every caller
// fully overwrites the buffer before reading or publishing it, which is
// also why reuse leaks nothing.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxes.Put(box)
		return b[:n]
	}
	b := make([]byte, classSize(c))
	return b[:n]
}

// Put returns a buffer obtained from Get to its size class. The
// capacity must be exactly a class size: anything else is a cross-size
// return — a buffer from somewhere else (or a sliced-down one) whose
// recycling would hand a short buffer to a later Get — and panics.
// Put(nil) is a no-op so error paths can return unconditionally.
func Put(b []byte) {
	if b == nil {
		return
	}
	c := classFor(cap(b))
	if c < 0 || classSize(c) != cap(b) {
		panic(fmt.Sprintf("mempool: cross-size return (cap %d is not a size class)", cap(b)))
	}
	if p := poison.Load(); p != 0 {
		b = b[:cap(b)]
		for i := range b {
			b[i] = byte(p)
		}
	}
	box := boxes.Get().(*[]byte)
	*box = b[:cap(b)]
	classes[c].Put(box)
}

// pooled reports whether a buffer's capacity is a pool class — i.e.
// whether Put will accept it. Oversize fall-throughs from Get (plain
// make of the requested length) intentionally fail this.
func pooled(b []byte) bool {
	c := classFor(cap(b))
	return c >= 0 && classSize(c) == cap(b)
}

// Recycle is the tolerant Put for release paths that may hold either a
// pooled buffer or a plain allocation (an oversize fall-through from
// Get, a caller's own buffer): class-capacity buffers return
// to their pool, everything else is simply dropped to the GC. Use Put
// where the buffer's provenance is known and a mismatch is a bug.
func Recycle(b []byte) {
	if pooled(b) {
		Put(b)
	}
}

// --- arena -------------------------------------------------------------

// Arena is a bump allocator for scratch whose lifetime is one burst:
// carve as many slices as the burst needs, then Reset once. The
// backing slab grows to the high-water mark and is reused, so a
// steady-state burst allocates nothing. Not safe for concurrent use;
// each scheduler owns its own.
type Arena struct {
	buf []byte
	off int
}

// Reset forgets every outstanding carve. Slices handed out earlier
// become invalid (their contents will be overwritten by the next
// burst) — the caller must not retain them across Reset.
func (a *Arena) Reset() { a.off = 0 }

// Bytes carves an n-byte slice from the arena.
func (a *Arena) Bytes(n int) []byte {
	a.reserve(n)
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// reserve grows the slab so n more bytes fit. Growth doubles, so the
// arena reaches its steady-state size in O(log n) bursts.
func (a *Arena) reserve(n int) {
	if a.off+n <= len(a.buf) {
		return
	}
	newLen := len(a.buf) * 2
	if newLen < a.off+n {
		newLen = a.off + n
	}
	if newLen < minClass {
		newLen = minClass
	}
	grown := make([]byte, newLen)
	copy(grown, a.buf[:a.off])
	a.buf = grown
}

// Blocks carves count contiguous n-byte slices (one slab, split like
// blockdev.AllocBlocks), appending them to dst to avoid allocating the
// outer slice too.
func (a *Arena) Blocks(dst [][]byte, count, n int) [][]byte {
	slab := a.Bytes(count * n)
	for i := 0; i < count; i++ {
		dst = append(dst, slab[i*n:(i+1)*n:(i+1)*n])
	}
	return dst
}
