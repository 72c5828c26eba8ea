package steghide

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"steghide/internal/fleet"
	"steghide/internal/obs"
)

// Cluster is one deniable namespace over many shard volumes: an FS
// whose files live on N independent daemons, placed by keyed
// consistent hashing of the hidden pathname (internal/fleet). The
// placement key derives from the login secret (ClusterKey), so the
// file→shard map is as hidden as the pathnames themselves — an
// observer holding every shard's ciphertext cannot evaluate it.
//
// Each shard keeps its own daemon and scheduler, so each disk's
// observable update stream is generated exactly as a standalone
// volume's: Definition 1 (§3.2.4) holds per shard, which is the
// paper's threat model — an attacker snapshots one device at a time.
// The cluster only decides which per-disk uniform process a file's
// updates join.
//
// Per-path operations route to the owning shard; List and Close fan
// out to every shard concurrently (over wire shards the v2 mux
// pipelines the fan-out on each connection). Rebalance relocates
// files after ring changes through the normal update stream — read,
// recreate on the new owner, delete on the old (the deleted blocks
// stay in place as the login's cover) — so migration traffic is
// ordinary, deniable activity on both shards. While a rebalance or
// drain is moving a file, operations on it may transiently fail with
// ErrNotFound; they succeed again once the move lands.
type Cluster struct {
	mu     sync.RWMutex
	ring   *fleet.Ring
	shards map[string]FS

	// reqs/moves are per-shard counters (nil without EnableMetrics).
	// Shard names are operator-assigned addresses — placement inputs
	// and outputs (the keyed map, per-path routing) never reach a
	// label, per the observability plane's leakage rule. metricsReg
	// and metricsName let shards joining later register their series.
	reqs        map[string]*obs.Counter
	moves       map[string]*obs.Counter
	metricsReg  *Metrics
	metricsName string
}

var _ FS = (*Cluster)(nil)

// ClusterKey derives the placement key for a login from its secret.
// Both the user name and passphrase bind the key, so two logins place
// the same pathnames independently; the volumes' salts do not enter
// (shards have distinct salts, but one login must hold one map).
func ClusterKey(user, passphrase string) Key {
	return DeriveKey([]byte(passphrase), "steghide-fleet-placement/"+user)
}

// NewCluster builds a cluster over named shard FSes with the given
// placement key. Shard names are operator-level identifiers (volume
// names, addresses); the set must be non-empty. The cluster takes
// ownership: Close closes every shard FS.
func NewCluster(key Key, shards map[string]FS) (*Cluster, error) {
	names := make([]string, 0, len(shards))
	for name, fs := range shards {
		if fs == nil {
			return nil, fmt.Errorf("steghide: cluster shard %q is nil", name)
		}
		names = append(names, name)
	}
	ring, err := fleet.New(key[:], names...)
	if err != nil {
		return nil, err
	}
	owned := make(map[string]FS, len(shards))
	for name, fs := range shards {
		owned[name] = fs
	}
	return &Cluster{ring: ring, shards: owned}, nil
}

// DialClusterFS dials every address as one shard of a cluster (the
// default volume of each daemon), logs user in on each, and returns
// the cluster with shards named by address. The placement key is
// ClusterKey(user, passphrase). DialOptions (WithRetry, WithRedial)
// apply to every shard connection. On any dial failure the already
// dialed shards are closed.
func DialClusterFS(ctx context.Context, addrs []string, user, passphrase string, opts ...DialOption) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, pathErr("dial", "", errors.New("steghide: cluster needs at least one address"))
	}
	shards := make(map[string]FS, len(addrs))
	for _, addr := range addrs {
		if _, dup := shards[addr]; dup {
			closeAll(shards)
			return nil, pathErr("dial", addr, errors.New("steghide: duplicate cluster address"))
		}
		fs, err := DialVolumeFS(ctx, addr, "", user, passphrase, opts...)
		if err != nil {
			closeAll(shards)
			return nil, err
		}
		shards[addr] = fs
	}
	c, err := NewCluster(ClusterKey(user, passphrase), shards)
	if err != nil {
		closeAll(shards)
		return nil, err
	}
	return c, nil
}

func closeAll(shards map[string]FS) {
	for _, fs := range shards {
		fs.Close() //nolint:errcheck // best-effort unwind on a failed dial
	}
}

// EnableMetrics exports per-shard request and rebalance counters
// through reg. Labels carry the cluster name and the operator-assigned
// shard name only — no pathnames, no placement outputs beyond the
// aggregate counts an on-path observer sees anyway.
func (c *Cluster) EnableMetrics(reg *Metrics, cluster string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqs = map[string]*obs.Counter{}
	c.moves = map[string]*obs.Counter{}
	for _, name := range c.ring.Shards() {
		c.metricsForLocked(reg, cluster, name)
	}
	c.metricsReg, c.metricsName = reg, cluster
}

func (c *Cluster) metricsForLocked(reg *Metrics, cluster, shard string) {
	c.reqs[shard] = reg.Counter("steghide_fleet_requests",
		"FS operations routed to the shard", "cluster", cluster, "shard", shard)
	c.moves[shard] = reg.Counter("steghide_fleet_rebalance_moves",
		"files relocated onto the shard by Rebalance/Drain", "cluster", cluster, "shard", shard)
}

// count bumps the shard's request counter if metrics are attached.
func (c *Cluster) count(counters map[string]*obs.Counter, shard string) {
	if ctr, ok := counters[shard]; ok {
		ctr.Inc()
	}
}

// closedFS answers for every shard of a closed Cluster: a core closed
// from the start fails each FS call on entry with os.ErrClosed, before
// it would reach a backend.
var closedFS = func() FS {
	c := &fsCore{}
	c.closed.Store(true)
	return c
}()

// shardLocked returns the named shard's FS, or closedFS once the
// cluster is closed; the caller holds c.mu.
func (c *Cluster) shardLocked(name string) FS {
	if c.shards == nil {
		return closedFS
	}
	return c.shards[name]
}

// owner resolves path's shard under the read lock.
func (c *Cluster) owner(path string) (string, FS) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	name := c.ring.Owner(path)
	c.count(c.reqs, name)
	return name, c.shardLocked(name)
}

// ShardFor reports which shard currently owns path — operator
// introspection (tests, rebalance planning); the mapping is secret to
// anyone without the placement key.
func (c *Cluster) ShardFor(path string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Owner(path)
}

// ShardNames returns the current shard names, sorted.
func (c *Cluster) ShardNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Shards()
}

// Shard returns the named shard's FS (nil if unknown) — for per-shard
// verification harnesses; routine traffic goes through the FS surface.
func (c *Cluster) Shard(name string) FS {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shards[name]
}

// --- FS ---------------------------------------------------------------

// Create implements FS on the owning shard.
func (c *Cluster) Create(ctx context.Context, path string) error {
	_, fs := c.owner(path)
	return fs.Create(ctx, path)
}

// OpenRead implements FS on the owning shard.
func (c *Cluster) OpenRead(ctx context.Context, path string) (ReadHandle, error) {
	_, fs := c.owner(path)
	return fs.OpenRead(ctx, path)
}

// OpenWrite implements FS on the owning shard.
func (c *Cluster) OpenWrite(ctx context.Context, path string) (WriteHandle, error) {
	_, fs := c.owner(path)
	return fs.OpenWrite(ctx, path)
}

// Save implements FS on the owning shard.
func (c *Cluster) Save(ctx context.Context, path string) error {
	_, fs := c.owner(path)
	return fs.Save(ctx, path)
}

// Truncate implements FS on the owning shard.
func (c *Cluster) Truncate(ctx context.Context, path string, size uint64) error {
	_, fs := c.owner(path)
	return fs.Truncate(ctx, path, size)
}

// Delete implements FS on the owning shard.
func (c *Cluster) Delete(ctx context.Context, path string) error {
	_, fs := c.owner(path)
	return fs.Delete(ctx, path)
}

// Stat implements FS on the owning shard.
func (c *Cluster) Stat(ctx context.Context, path string) (FileInfo, error) {
	_, fs := c.owner(path)
	return fs.Stat(ctx, path)
}

// Disclose implements FS on the owning shard.
func (c *Cluster) Disclose(ctx context.Context, path string) (FileInfo, error) {
	_, fs := c.owner(path)
	return fs.Disclose(ctx, path)
}

// CreateDummy implements FS on the owning shard. Cover for every
// shard — which relocation needs before real files land anywhere —
// is CoverAll's job.
func (c *Cluster) CreateDummy(ctx context.Context, path string, blocks uint64) error {
	_, fs := c.owner(path)
	return fs.CreateDummy(ctx, path, blocks)
}

// List implements FS: the shard listings, fanned out concurrently,
// merged and sorted. Over wire shards each connection's mux pipelines
// its part; distinct shards overlap fully.
func (c *Cluster) List(ctx context.Context) ([]string, error) {
	type result struct {
		paths []string
		err   error
	}
	c.mu.RLock()
	names := c.ring.Shards()
	fss := make([]FS, len(names))
	for i, n := range names {
		fss[i] = c.shardLocked(n)
		c.count(c.reqs, n)
	}
	c.mu.RUnlock()
	results := make([]result, len(fss))
	var wg sync.WaitGroup
	for i, fs := range fss {
		wg.Add(1)
		go func(i int, fs FS) {
			defer wg.Done()
			paths, err := fs.List(ctx)
			results[i] = result{paths, err}
		}(i, fs)
	}
	wg.Wait()
	var all []string
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		all = append(all, r.paths...)
	}
	sort.Strings(all)
	return all, nil
}

// Close implements FS: every shard session closes concurrently; the
// first error wins. Every later call answers os.ErrClosed.
func (c *Cluster) Close() error {
	c.mu.Lock()
	shards := c.shards
	c.shards = nil
	c.mu.Unlock()
	errs := make(chan error, len(shards))
	var wg sync.WaitGroup
	for _, fs := range shards {
		wg.Add(1)
		go func(fs FS) {
			defer wg.Done()
			errs <- fs.Close()
		}(fs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- cover, membership, rebalance ------------------------------------

// CoverAll creates a dummy file of blocks blocks under the given path
// on every shard — the per-disk relocation targets and deniable cover
// a fresh fleet needs before real files land anywhere. (Routing the
// dummy through the ring would leave the other shards with no cover.)
// A shard that already holds a dummy of that shape under path — an
// earlier fan-out reached it before another shard failed — counts as
// covered, so retrying a failed CoverAll converges.
func (c *Cluster) CoverAll(ctx context.Context, path string, blocks uint64) error {
	c.mu.RLock()
	names := c.ring.Shards()
	fss := make([]FS, len(names))
	for i, n := range names {
		fss[i] = c.shardLocked(n)
	}
	c.mu.RUnlock()
	errs := make(chan error, len(fss))
	var wg sync.WaitGroup
	for _, fs := range fss {
		wg.Add(1)
		go func(fs FS) {
			defer wg.Done()
			err := fs.CreateDummy(ctx, path, blocks)
			if errors.Is(err, errExists) && coveredAs(ctx, fs, path, blocks) {
				err = nil
			}
			errs <- err
		}(fs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// coveredAs reports whether fs holds a dummy file under path that
// blocks blocks account for. The FS surface carries no block geometry,
// so the test is the one a client can make: the file is a dummy and
// its size splits into blocks equal payloads.
func coveredAs(ctx context.Context, fs FS, path string, blocks uint64) bool {
	info, err := fs.Stat(ctx, path)
	return err == nil && info.Dummy && blocks > 0 && info.Size > 0 && info.Size%blocks == 0
}

// AddShard joins a new shard to the ring. Files whose owner moved keep
// living on their old shards until Rebalance relocates them; until
// then per-path operations on exactly those files see ErrNotFound.
// Call Rebalance promptly (or immediately, under the same operational
// quiet period an ordinary resharding wants).
func (c *Cluster) AddShard(name string, fs FS) error {
	if fs == nil {
		return fmt.Errorf("steghide: cluster shard %q is nil", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shards == nil {
		return &PathError{Op: "addshard", Path: name, Err: os.ErrClosed}
	}
	next, err := c.ring.WithShard(name)
	if err != nil {
		return err
	}
	c.ring = next
	c.shards[name] = fs
	if c.metricsReg != nil {
		c.metricsForLocked(c.metricsReg, c.metricsName, name)
	}
	return nil
}

// Rebalance relocates every file whose owner changed since it was
// written: read from the shard actually holding it, recreate through
// the new owner's normal update path, delete from the old (the
// vacated blocks stay in place as the login's dummy cover — exactly
// what a local delete leaves). Each move is therefore ordinary,
// dummy-indistinguishable traffic on both shards. Returns how many
// files moved. Concurrent operations on a file mid-move may
// transiently fail with ErrNotFound.
func (c *Cluster) Rebalance(ctx context.Context) (int, error) {
	c.mu.RLock()
	ring := c.ring
	names := ring.Shards()
	fss := make(map[string]FS, len(names))
	for _, n := range names {
		fss[n] = c.shardLocked(n)
	}
	c.mu.RUnlock()

	moved := 0
	for _, from := range names {
		paths, err := fss[from].List(ctx)
		if err != nil {
			return moved, err
		}
		for _, path := range paths {
			to := ring.Owner(path)
			if to == from {
				continue
			}
			if err := moveFile(ctx, fss[from], fss[to], path); err != nil {
				return moved, err
			}
			moved++
			c.mu.RLock()
			c.count(c.moves, to)
			c.mu.RUnlock()
		}
	}
	return moved, nil
}

// Drain removes a shard from the fleet: the ring drops it first (new
// traffic routes around it immediately), every file it holds
// relocates to its new owner through the normal update stream, and
// the drained shard's FS is returned still open — the caller closes
// it (logging the session out) and, for wire shards, composes with
// the server's Shutdown(ctx) goaway. Draining the last shard is an
// error. Returns the drained FS and how many files moved off it.
func (c *Cluster) Drain(ctx context.Context, name string) (FS, int, error) {
	c.mu.Lock()
	if c.shards == nil {
		c.mu.Unlock()
		return nil, 0, &PathError{Op: "drain", Path: name, Err: os.ErrClosed}
	}
	next, err := c.ring.WithoutShard(name)
	if err != nil {
		c.mu.Unlock()
		return nil, 0, err
	}
	draining := c.shards[name]
	c.ring = next
	delete(c.shards, name)
	fss := make(map[string]FS, len(c.shards))
	for n, fs := range c.shards {
		fss[n] = fs
	}
	c.mu.Unlock()

	paths, err := draining.List(ctx)
	if err != nil {
		return draining, 0, err
	}
	moved := 0
	for _, path := range paths {
		to := next.Owner(path)
		if err := moveFile(ctx, draining, fss[to], path); err != nil {
			return draining, moved, err
		}
		moved++
		c.mu.RLock()
		c.count(c.moves, to)
		c.mu.RUnlock()
	}
	return draining, moved, nil
}

// moveFile relocates one file between shards deniably: a read on the
// source, a whole-content write through the target's update-hiding
// policy, then a delete on the source — whose blocks stay in place as
// the login's dummy cover, indistinguishable from never having held
// the file.
func moveFile(ctx context.Context, from, to FS, path string) error {
	data, err := ReadFile(ctx, from, path)
	if err != nil {
		return err
	}
	if err := WriteFile(ctx, to, path, data); err != nil {
		return err
	}
	return from.Delete(ctx, path)
}
