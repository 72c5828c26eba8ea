package stegfs

import (
	"fmt"
	"sync"

	"steghide/internal/bitmap"
	"steghide/internal/prng"
)

// BlockSource is the allocator's view of the steg space: which blocks
// currently hold live data and which are dummies. The non-volatile
// agent (Construction 1) backs it with a persistent bitmap over the
// whole volume; the volatile agent (Construction 2) backs it with the
// union of blocks belonging to files disclosed in the current session.
type BlockSource interface {
	// AcquireRandom picks a uniformly random free block, marks it used,
	// and returns it. It fails with ErrVolumeFull when no block is free.
	AcquireRandom() (uint64, error)
	// Acquire marks a specific free block used, reporting success.
	Acquire(loc uint64) bool
	// Release marks a block free (a dummy, in steg terms).
	Release(loc uint64)
	// FreeCount returns the number of free blocks.
	FreeCount() uint64
	// SpaceBounds returns the steg space [first, n) the source manages.
	SpaceBounds() (first, n uint64)
}

// BitmapSource is the standard BlockSource over an in-memory bitmap.
// It is safe for concurrent use.
type BitmapSource struct {
	mu    sync.Mutex
	used  *bitmap.Bitmap
	first uint64
	rng   *prng.PRNG
}

// NewBitmapSource creates a source for the steg space [first, n);
// blocks below first are permanently reserved.
func NewBitmapSource(first, n uint64, rng *prng.PRNG) *BitmapSource {
	if first >= n {
		panic(fmt.Sprintf("stegfs: bitmap source bounds [%d,%d)", first, n))
	}
	used := bitmap.New(n)
	used.SetRange(0, first)
	return &BitmapSource{used: used, first: first, rng: rng}
}

// SpaceBounds implements BlockSource.
func (s *BitmapSource) SpaceBounds() (uint64, uint64) { return s.first, s.used.Len() }

// FreeCount implements BlockSource.
func (s *BitmapSource) FreeCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used.Len() - s.used.Count()
}

// IsFree reports whether loc currently holds no live data.
func (s *BitmapSource) IsFree(loc uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc >= s.used.Len() {
		return false
	}
	return !s.used.Get(loc)
}

// Acquire implements BlockSource.
func (s *BitmapSource) Acquire(loc uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc >= s.used.Len() {
		return false
	}
	return s.used.Set(loc)
}

// Release implements BlockSource.
func (s *BitmapSource) Release(loc uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc < s.first || loc >= s.used.Len() {
		return // reserved blocks never become free
	}
	s.used.Clear(loc)
}

// MarshalBinary serializes the bitmap — the persistent memory of the
// non-volatile agent.
func (s *BitmapSource) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used.MarshalBinary()
}

// UnmarshalBinary restores a bitmap saved by MarshalBinary. The
// restored bitmap must cover the same space.
func (s *BitmapSource) UnmarshalBinary(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	restored := new(bitmap.Bitmap)
	if err := restored.UnmarshalBinary(data); err != nil {
		return err
	}
	if restored.Len() != s.used.Len() {
		return fmt.Errorf("stegfs: restored bitmap covers %d blocks, want %d", restored.Len(), s.used.Len())
	}
	s.used = restored
	return nil
}

// AcquireRandom implements BlockSource. It draws uniformly from the
// free set: rejection sampling over the steg space, falling back to a
// scan from a random origin when the volume is nearly full (the scan
// start being uniform keeps the choice unbiased enough for the
// fallback's rarity).
func (s *BitmapSource) AcquireRandom() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.used.Len()
	if s.used.Count() == n {
		return 0, ErrVolumeFull
	}
	span := n - s.first
	for try := 0; try < 128; try++ {
		loc := s.first + s.rng.Uint64n(span)
		if s.used.Set(loc) {
			return loc, nil
		}
	}
	start := s.first + s.rng.Uint64n(span)
	if idx, ok := s.used.NextClear(start); ok {
		s.used.Set(idx)
		return idx, nil
	}
	if idx, ok := s.used.NextClear(s.first); ok {
		s.used.Set(idx)
		return idx, nil
	}
	return 0, ErrVolumeFull
}
