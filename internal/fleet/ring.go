// Package fleet places hidden pathnames onto shard volumes with keyed
// consistent hashing, so one logical namespace spans many independent
// daemons.
//
// Two properties matter for the paper's threat model:
//
//   - The placement function is HMAC-SHA256 under a key derived from
//     the login secret. An observer holding the ciphertext of every
//     shard — or even the full shard address list — cannot evaluate
//     the map, so "which shard does this file live on" is as hidden as
//     the pathname itself.
//   - Each shard runs its own daemon and scheduler, so its observable
//     update stream is generated exactly as a standalone volume's is.
//     Definition 1 (§3.2.4) therefore holds per shard: the ring only
//     decides which per-disk uniform process a file's updates join.
//
// The ring uses virtual nodes for balance and moves only the minimal
// set of keys when shards are added or removed, which keeps rebalance
// traffic (already shaped as ordinary update traffic) small.
package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per shard. 128
// points keeps the max/min load ratio under ~1.3 for small fleets
// while the ring stays cheap to rebuild.
const DefaultVirtualNodes = 128

// Ring is an immutable keyed consistent-hash ring over named shards.
// All methods are safe for concurrent use; mutation returns a new
// Ring (WithShard / WithoutShard), so lookups never lock.
type Ring struct {
	key    []byte
	shards []string // sorted, for deterministic iteration
	points []point  // sorted by hash
}

type point struct {
	hash  uint64
	shard string
}

// New builds a ring over the given shard names with DefaultVirtualNodes
// points each. key is the placement key (derive it from the login
// secret; never a public value). Duplicate or empty shard names and an
// empty key are rejected.
func New(key []byte, shards ...string) (*Ring, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("fleet: empty placement key")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards")
	}
	seen := make(map[string]bool, len(shards))
	sorted := make([]string, 0, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("fleet: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("fleet: duplicate shard %q", s)
		}
		seen[s] = true
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	r := &Ring{
		key:    append([]byte(nil), key...),
		shards: sorted,
	}
	r.points = make([]point, 0, len(sorted)*DefaultVirtualNodes)
	for _, s := range sorted {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, point{hash: r.hashPoint(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// hashPoint positions virtual node v of a shard on the ring.
func (r *Ring) hashPoint(shard string, v int) uint64 {
	mac := hmac.New(sha256.New, r.key)
	mac.Write([]byte("shard\x00"))
	mac.Write([]byte(shard))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	mac.Write(buf[:])
	return binary.BigEndian.Uint64(mac.Sum(nil))
}

// hashName maps a hidden pathname onto the ring.
func (r *Ring) hashName(name string) uint64 {
	mac := hmac.New(sha256.New, r.key)
	mac.Write([]byte("name\x00"))
	mac.Write([]byte(name))
	return binary.BigEndian.Uint64(mac.Sum(nil))
}

// Owner returns the shard responsible for the given hidden pathname.
func (r *Ring) Owner(name string) string {
	h := r.hashName(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards returns the shard names in sorted order.
func (r *Ring) Shards() []string {
	return append([]string(nil), r.shards...)
}

// Has reports whether the ring contains the named shard.
func (r *Ring) Has(shard string) bool {
	i := sort.SearchStrings(r.shards, shard)
	return i < len(r.shards) && r.shards[i] == shard
}

// WithShard returns a new ring with the shard added.
func (r *Ring) WithShard(shard string) (*Ring, error) {
	if r.Has(shard) {
		return nil, fmt.Errorf("fleet: duplicate shard %q", shard)
	}
	return New(r.key, append(r.Shards(), shard)...)
}

// WithoutShard returns a new ring with the shard removed. Removing the
// last shard is an error: a fleet cannot serve from zero daemons.
func (r *Ring) WithoutShard(shard string) (*Ring, error) {
	if !r.Has(shard) {
		return nil, fmt.Errorf("fleet: unknown shard %q", shard)
	}
	var rest []string
	for _, s := range r.shards {
		if s != shard {
			rest = append(rest, s)
		}
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("fleet: cannot remove last shard %q", shard)
	}
	return New(r.key, rest...)
}
