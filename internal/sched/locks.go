package sched

import (
	"slices"
	"sync"
)

// defaultShards is the number of lock shards when the caller does not
// choose one. Sharding keyed by block number lets updates on different
// blocks proceed concurrently while read-modify-write cycles on the
// same block serialize; 1024 shards cost 8 KB and make false sharing
// of hot blocks unlikely at realistic session counts.
const defaultShards = 1024

// BlockLocks is a sharded per-block lock map: block loc is guarded by
// shard loc mod n. It implements stegfs.BlockLocker, so one instance
// can serialize both the scheduler's own I/O and the Volume-level
// writes the file layer issues (growth, header/pointer saves).
//
// Deadlock discipline: every multi-block acquisition (Lock2,
// LockBlocks) takes shards in ascending index order, and no caller
// acquires a second shard while holding one outside those helpers.
type BlockLocks struct {
	shards []sync.Mutex
	mask   uint64
}

// NewBlockLocks builds a lock map of at least n shards (rounded up to
// a power of two); n <= 0 selects the default.
func NewBlockLocks(n int) *BlockLocks {
	if n <= 0 {
		n = defaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &BlockLocks{shards: make([]sync.Mutex, size), mask: uint64(size - 1)}
}

// LockBlock locks the shard guarding block loc.
func (l *BlockLocks) LockBlock(loc uint64) { l.shards[loc&l.mask].Lock() }

// UnlockBlock unlocks the shard guarding block loc.
func (l *BlockLocks) UnlockBlock(loc uint64) { l.shards[loc&l.mask].Unlock() }

// Lock2 locks the shards guarding blocks a and b (one acquisition if
// they share a shard) and returns the matching unlock.
func (l *BlockLocks) Lock2(a, b uint64) (unlock func()) {
	i, j := a&l.mask, b&l.mask
	if i == j {
		l.shards[i].Lock()
		return func() { l.shards[i].Unlock() }
	}
	if i > j {
		i, j = j, i
	}
	l.shards[i].Lock()
	l.shards[j].Lock()
	return func() {
		l.shards[j].Unlock()
		l.shards[i].Unlock()
	}
}

// LockBlocks locks every shard guarding a block in locs and returns
// the matching unlock. Duplicate blocks and shard collisions are
// deduplicated.
func (l *BlockLocks) LockBlocks(locs []uint64) (unlock func()) {
	if len(locs) == 0 {
		return func() {}
	}
	held := l.LockShards(make([]uint64, 0, len(locs)), locs)
	return func() { l.UnlockShards(held) }
}

// LockShards is LockBlocks without its allocations, for callers that
// lock a batch per operation: the shard list is built in buf's backing
// (grown if short) and returned, to be handed back to UnlockShards.
func (l *BlockLocks) LockShards(buf, locs []uint64) (held []uint64) {
	held = buf[:0]
	for _, loc := range locs {
		held = append(held, loc&l.mask)
	}
	slices.Sort(held)
	held = slices.Compact(held)
	for _, i := range held {
		l.shards[i].Lock()
	}
	return held
}

// UnlockShards releases what LockShards returned.
func (l *BlockLocks) UnlockShards(held []uint64) {
	for k := len(held) - 1; k >= 0; k-- {
		l.shards[held[k]].Unlock()
	}
}
