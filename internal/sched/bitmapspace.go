package sched

import (
	"errors"
	"sync"

	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// ErrNoFreeSpace reports that the update space holds no relocatable
// (dummy) blocks, so the Figure-6 loop cannot terminate.
var ErrNoFreeSpace = errors.New("sched: update space has no free blocks")

// BitmapSpace is the Construction-1 style Space (§4.1): draws are
// uniform over the whole steg space, the data/dummy partition is a
// shared bitmap, and every block — data or dummy — reseals under the
// agent's one global key, so classification never goes stale in a way
// that matters: the camouflage action is the same for every block.
type BitmapSpace struct {
	source *stegfs.BitmapSource
	seal   *sealer.Sealer

	// vacate, when set (journaled agents), intercepts the release of a
	// relocation's vacated block: the block stays out of the dummy pool
	// — in "limbo", still marked used — until the save of the owning
	// file's header, at head, commits the move, because until then the
	// on-disk header still references it and a refill or reallocation
	// would destroy committed data the moment a crash rolls the
	// relocation back.
	vacate func(oldLoc, head uint64)

	mu    sync.Mutex // guards rng
	rng   *prng.PRNG
	first uint64
	span  uint64
}

// NewBitmapSpace builds the space over source; seal is the agent's
// global block sealer, rng drives the uniform draws.
func NewBitmapSpace(source *stegfs.BitmapSource, seal *sealer.Sealer, rng *prng.PRNG) *BitmapSpace {
	first, n := source.SpaceBounds()
	return &BitmapSpace{source: source, seal: seal, rng: rng, first: first, span: n - first}
}

func (b *BitmapSpace) draw() uint64 {
	b.mu.Lock()
	loc := b.first + b.rng.Uint64n(b.span)
	b.mu.Unlock()
	return loc
}

// DrawUpdate implements Space.
func (b *BitmapSpace) DrawUpdate(loc uint64) (Target, error) {
	if b.source.FreeCount() == 0 {
		return Target{}, ErrNoFreeSpace
	}
	b2 := b.draw()
	switch {
	case b2 == loc:
		return Target{Loc: loc, Kind: Self}, nil
	case b.source.IsFree(b2):
		// First phase of the relocation commit: acquiring B2 removes
		// it from the dummy pool so no concurrent draw can pick it. A
		// lost acquire race means another update claimed it first.
		if !b.source.Acquire(b2) {
			return Target{Kind: Redraw}, nil
		}
		return Target{Loc: b2, Kind: Relocate}, nil
	default:
		return Target{Loc: b2, Kind: Camouflage}, nil
	}
}

// SetVacateHook diverts vacated blocks into the journal adapter's
// limbo instead of releasing them immediately. Install before
// concurrent use.
func (b *BitmapSpace) SetVacateHook(fn func(oldLoc, head uint64)) { b.vacate = fn }

// Settle implements Space. A committed relocation's vacated block
// becomes a dummy — immediately in the memory-only protocol, or after
// the owning file's next durable save when a journal holds it in limbo.
// An aborted one's claimed target returns to the dummy pool; the data
// never left its old block.
func (b *BitmapSpace) Settle(oldLocs, newLocs []uint64, head uint64, _ *sealer.Sealer, committed bool) {
	for i, oldLoc := range oldLocs {
		switch {
		case !committed:
			b.source.Release(newLocs[i])
		case b.vacate != nil:
			b.vacate(oldLoc, head)
		default:
			b.source.Release(oldLoc)
		}
	}
}

// DrawDummyBatch implements Space.
func (b *BitmapSpace) DrawDummyBatch(locs []uint64) (int, error) {
	b.mu.Lock()
	for i := range locs {
		locs[i] = b.first + b.rng.Uint64n(b.span)
	}
	b.mu.Unlock()
	return len(locs), nil
}

// Classify implements Space: under one global key a dummy update is
// always a reseal, whatever the block currently holds.
func (b *BitmapSpace) Classify(_ []uint64, acts []Action, seals []*sealer.Sealer) {
	for i := range acts {
		acts[i], seals[i] = ActReseal, b.seal
	}
}
