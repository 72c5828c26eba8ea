package fleet

import (
	"fmt"
	"testing"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/user/file-%04d", i)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	a, err := New(testKey, "s2", "s0", "s1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testKey, "s1", "s2", "s0") // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names(500) {
		if a.Owner(n) != b.Owner(n) {
			t.Fatalf("owner of %q differs between identical rings", n)
		}
	}
	got := a.Shards()
	if len(got) != 3 || got[0] != "s0" || got[1] != "s1" || got[2] != "s2" {
		t.Fatalf("shards = %v", got)
	}
	if !a.Has("s1") || a.Has("nope") {
		t.Fatal("Has wrong")
	}
}

func TestRingKeyDependence(t *testing.T) {
	// Placement under a different login secret must be a different
	// function — otherwise an observer could evaluate the map.
	a, _ := New(testKey, "s0", "s1", "s2", "s3")
	b, _ := New([]byte("another-placement-key-entirely!!"), "s0", "s1", "s2", "s3")
	same := 0
	all := names(1000)
	for _, n := range all {
		if a.Owner(n) == b.Owner(n) {
			same++
		}
	}
	// Independent maps over 4 shards agree ~25% of the time; agreeing
	// on more than half would mean key-independent structure.
	if same > len(all)/2 {
		t.Fatalf("placement barely depends on key: %d/%d identical", same, len(all))
	}
}

func TestRingBalance(t *testing.T) {
	r, err := New(testKey, "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	all := names(8000)
	for _, n := range all {
		counts[r.Owner(n)]++
	}
	want := len(all) / len(r.Shards())
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %s owns %d of %d names (expected ~%d)", s, c, len(all), want)
		}
	}
}

func TestRingMinimalMovementOnAdd(t *testing.T) {
	r, _ := New(testKey, "s0", "s1", "s2", "s3")
	next, err := r.WithShard("s4")
	if err != nil {
		t.Fatal(err)
	}
	all := names(4000)
	var moved []string
	for _, n := range all {
		if r.Owner(n) != next.Owner(n) {
			moved = append(moved, n)
		}
	}
	// Consistent hashing moves ~1/(n+1) of keys to the new shard and
	// nothing between old shards.
	if len(moved) > len(all)/3 {
		t.Fatalf("add moved %d of %d names", len(moved), len(all))
	}
	if len(moved) == 0 {
		t.Fatal("new shard received nothing")
	}
	for _, n := range moved {
		if next.Owner(n) != "s4" {
			t.Fatalf("%q moved between old shards: %s -> %s", n, r.Owner(n), next.Owner(n))
		}
	}
}

func TestRingMinimalMovementOnRemove(t *testing.T) {
	r, _ := New(testKey, "s0", "s1", "s2", "s3")
	next, err := r.WithoutShard("s2")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names(4000) {
		was, now := r.Owner(n), next.Owner(n)
		if was == "s2" {
			if now == "s2" {
				t.Fatalf("%q still owned by removed shard", n)
			}
			continue
		}
		if was != now {
			t.Fatalf("%q moved between surviving shards: %s -> %s", n, was, now)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := New(nil, "s0"); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := New(testKey); err == nil {
		t.Fatal("no shards accepted")
	}
	if _, err := New(testKey, "s0", "s0"); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := New(testKey, ""); err == nil {
		t.Fatal("empty shard name accepted")
	}
	r, _ := New(testKey, "s0")
	if _, err := r.WithShard("s0"); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if _, err := r.WithoutShard("sX"); err == nil {
		t.Fatal("unknown remove accepted")
	}
	if _, err := r.WithoutShard("s0"); err == nil {
		t.Fatal("removing last shard accepted")
	}
}
