package sched

import (
	"math/bits"
	"sync"
)

// lockShards is the number of lock shards. Sharding keyed by block
// number lets updates on different blocks proceed concurrently while
// read-modify-write cycles on the same block serialize; 1024 shards
// cost 8 KB and make false sharing of hot blocks unlikely at realistic
// session counts.
const lockShards = 1024

// BlockLocks is a sharded per-block lock map: block loc is guarded by
// shard loc mod 1024. It implements stegfs.BlockLocker, so one instance
// can serialize both the scheduler's own I/O and the Volume-level
// writes the file layer issues (growth, header/pointer saves).
//
// Deadlock discipline: every multi-block acquisition (LockBlocks,
// LockShards) takes shards in ascending index order, and no caller
// acquires a second shard while holding one outside those helpers.
type BlockLocks struct {
	shards [lockShards]sync.Mutex
}

// ShardSet is the set of shards a batch holds: one bit per shard, in
// the order LockShards takes them.
type ShardSet [lockShards / 64]uint64

// LockBlock locks the shard guarding block loc.
func (l *BlockLocks) LockBlock(loc uint64) { l.shards[loc%lockShards].Lock() }

// UnlockBlock unlocks the shard guarding block loc.
func (l *BlockLocks) UnlockBlock(loc uint64) { l.shards[loc%lockShards].Unlock() }

// LockBlocks locks every shard guarding a block in locs and returns
// the matching unlock. Duplicate blocks and shard collisions are
// deduplicated.
func (l *BlockLocks) LockBlocks(locs []uint64) (unlock func()) {
	held := new(ShardSet)
	l.LockShards(held, locs)
	return func() { l.UnlockShards(held) }
}

// LockShards is LockBlocks without its allocations, for callers that
// lock a batch per operation: the shards guarding locs are collected in
// held and locked in ascending order, to be handed back to
// UnlockShards.
func (l *BlockLocks) LockShards(held *ShardSet, locs []uint64) {
	*held = ShardSet{}
	for _, loc := range locs {
		s := loc % lockShards
		held[s/64] |= 1 << (s % 64)
	}
	for w, word := range held {
		for word != 0 {
			l.shards[w*64+bits.TrailingZeros64(word)].Lock()
			word &= word - 1
		}
	}
}

// UnlockShards releases what LockShards took and empties held.
func (l *BlockLocks) UnlockShards(held *ShardSet) {
	for w, word := range held {
		for word != 0 {
			l.shards[w*64+bits.TrailingZeros64(word)].Unlock()
			word &= word - 1
		}
	}
	*held = ShardSet{}
}
