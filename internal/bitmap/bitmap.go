// Package bitmap provides the block-allocation bitmap used by the
// agent to distinguish data blocks from dummy blocks (§6.1 of the
// paper: "we use a bitmap to mark data blocks against dummy blocks"),
// and by the baseline file systems' allocators.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-size bit set over block indices [0, N).
// The zero value is unusable; create one with New.
type Bitmap struct {
	words []uint64
	n     uint64 // number of valid bits
	set   uint64 // population count, maintained incrementally
}

// New returns a bitmap over n bits, all clear.
func New(n uint64) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() uint64 { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 { return b.set }

func (b *Bitmap) check(i uint64) {
	if i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i uint64) bool {
	b.check(i)
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Set sets bit i and reports whether it changed.
func (b *Bitmap) Set(i uint64) bool {
	b.check(i)
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.set++
	return true
}

// Clear clears bit i and reports whether it changed.
func (b *Bitmap) Clear(i uint64) bool {
	b.check(i)
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.set--
	return true
}

// NextClear returns the smallest clear bit index ≥ from, or ok=false
// if every bit from `from` onward is set.
func (b *Bitmap) NextClear(from uint64) (idx uint64, ok bool) {
	if from >= b.n {
		return 0, false
	}
	w := from / 64
	// Mask off bits below `from` in the first word by treating them
	// as set.
	cur := b.words[w] | ((1 << (from % 64)) - 1)
	for {
		if cur != ^uint64(0) {
			bit := uint64(bits.TrailingZeros64(^cur))
			idx = w*64 + bit
			if idx >= b.n {
				return 0, false
			}
			return idx, true
		}
		w++
		if w*64 >= b.n {
			return 0, false
		}
		cur = b.words[w]
	}
}

// NextSet returns the smallest set bit index ≥ from, or ok=false.
func (b *Bitmap) NextSet(from uint64) (idx uint64, ok bool) {
	if from >= b.n {
		return 0, false
	}
	w := from / 64
	cur := b.words[w] &^ ((1 << (from % 64)) - 1)
	for {
		if cur != 0 {
			bit := uint64(bits.TrailingZeros64(cur))
			idx = w*64 + bit
			if idx >= b.n {
				return 0, false
			}
			return idx, true
		}
		w++
		if w*64 >= b.n {
			return 0, false
		}
		cur = b.words[w]
	}
}

// FindRun returns the start of the first run of `length` consecutive
// clear bits at or after from, or ok=false if none exists.
func (b *Bitmap) FindRun(from, length uint64) (start uint64, ok bool) {
	if length == 0 {
		return from, from <= b.n
	}
	i := from
	for {
		s, found := b.NextClear(i)
		if !found {
			return 0, false
		}
		// Extend the run from s.
		end := s + 1
		for end < b.n && end-s < length && !b.Get(end) {
			end++
		}
		if end-s >= length {
			return s, true
		}
		if end >= b.n {
			return 0, false
		}
		i = end
	}
}

// SetRange sets bits [start, start+length).
func (b *Bitmap) SetRange(start, length uint64) {
	for i := start; i < start+length; i++ {
		b.Set(i)
	}
}

// Reset clears every bit, keeping the bitmap's storage.
func (b *Bitmap) Reset() {
	clear(b.words)
	b.set = 0
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n, set: b.set}
	copy(out.words, b.words)
	return out
}

// MarshalBinary serializes the bitmap (length-prefixed words).
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.BigEndian.PutUint64(out, b.n)
	for i, w := range b.words {
		binary.BigEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary restores a bitmap serialized by MarshalBinary.
func (b *Bitmap) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitmap: truncated header")
	}
	n := binary.BigEndian.Uint64(data)
	words := int((n + 63) / 64)
	if len(data) != 8+8*words {
		return fmt.Errorf("bitmap: length %d does not match %d bits", len(data), n)
	}
	b.n = n
	b.words = make([]uint64, words)
	b.set = 0
	for i := range b.words {
		b.words[i] = binary.BigEndian.Uint64(data[8+8*i:])
		b.set += uint64(bits.OnesCount64(b.words[i]))
	}
	// Bits beyond n must be clear for Count to stay exact.
	if rem := n % 64; rem != 0 && words > 0 {
		extra := b.words[words-1] >> rem
		if extra != 0 {
			return fmt.Errorf("bitmap: stray bits beyond length")
		}
	}
	return nil
}
