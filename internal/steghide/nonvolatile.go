package steghide

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"steghide/internal/obs"
	"steghide/internal/prng"
	"steghide/internal/sched"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// NonVolatileAgent is Construction 1 (§4.1, "StegHide*"). It holds in
// persistent memory a single key that encrypts every block of the
// volume and a bitmap marking data blocks against dummy blocks (the
// FAK of the implicit dummy file that owns all free blocks). Users
// contribute only the locator secret that derives their headers'
// positions; all sealing uses the agent's key, so the agent can issue
// dummy updates on any block of the volume.
//
// Concurrency: the Figure-6 draw loop and all update I/O live in the
// per-volume scheduler (internal/sched), whose sharded block locks
// let any number of callers update different files — and the daemon
// emit dummy traffic — concurrently. The agent itself only serializes
// per open file (block maps are single-writer) and around its file
// table; there is no agent-wide mutex on the data path.
type NonVolatileAgent struct {
	vol    *stegfs.Volume
	source *stegfs.BitmapSource
	seal   *sealer.Sealer
	key    sealer.Key
	jkey   sealer.Key // journal key (derived; used when EnableJournal runs)
	sched  *sched.Scheduler
	space  *sched.BitmapSpace

	// intents is the journal adapter, nil until EnableJournal.
	intents *c1Intents

	// files is keyed by pathname and holds one handle per locator
	// secret: two principals may legitimately own distinct hidden
	// files under the same pathname (each locator derives its own
	// header positions), and neither may shadow — or be served — the
	// other's. Every operation names its file by (path, handle), the
	// handle Create or Open returned.
	mu    sync.Mutex
	files map[string][]*fileHandle

	// opMu fences the persistent-memory snapshot against in-flight
	// Figure-6 work: updates and dummy traffic hold it shared, while
	// State/LoadState hold it exclusively, so a snapshot never
	// captures a relocation between its acquire and release halves.
	opMu sync.RWMutex
}

// fileHandle serializes operations on one open file: stegfs.File is
// not safe for concurrent use, while different files may proceed in
// parallel. closed (guarded by mu) fences the lookup-then-lock gap:
// an operation that fetched the handle just before a concurrent Close
// finds the flag set and fails with "not open" instead of mutating a
// file the agent already saved and forgot.
type fileHandle struct {
	mu     sync.Mutex
	f      *stegfs.File
	closed bool
}

// NewNonVolatile creates the agent for a freshly formatted volume.
// secret is the agent's persistent key material; rng drives all its
// random choices.
func NewNonVolatile(vol *stegfs.Volume, secret []byte, rng *prng.PRNG) (*NonVolatileAgent, error) {
	key := sealer.DeriveKey(secret, "steghide-c1-block-key")
	seal, err := vol.NewSealer(key)
	if err != nil {
		return nil, err
	}
	source := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng.Child("alloc"))
	a := &NonVolatileAgent{
		vol:    vol,
		source: source,
		seal:   seal,
		key:    key,
		jkey:   JournalKeyFromSecret(secret, "c1"),
		files:  map[string][]*fileHandle{},
	}
	a.space = sched.NewBitmapSpace(source, seal, rng.Child("figure6"))
	a.sched = sched.New(vol, a.space)
	return a, nil
}

// Vol returns the underlying volume.
func (a *NonVolatileAgent) Vol() *stegfs.Volume { return a.vol }

// Source exposes the agent's persistent data/dummy bitmap.
func (a *NonVolatileAgent) Source() *stegfs.BitmapSource { return a.source }

// Stats returns a snapshot of the agent's counters.
func (a *NonVolatileAgent) Stats() UpdateStats { return a.sched.Stats() }

// ResetStats zeroes the counters.
func (a *NonVolatileAgent) ResetStats() { a.sched.ResetStats() }

// DataSeq reports the monotonically increasing data-update count —
// the activity signal the adaptive dummy-traffic daemon watches.
func (a *NonVolatileAgent) DataSeq() uint64 { return a.sched.DataSeq() }

// EnableMetrics exports the agent's observability series through reg:
// the scheduler's stream counters and histograms plus the journal
// ring's occupancy when journaled. Call after EnableJournal, before
// concurrent use. Deliberately absent: any
// open-file or known-file count — for Construction 1 that number is
// exactly what the volume hides, and no attacker position observes
// it, so it must not surface on an ops endpoint either.
func (a *NonVolatileAgent) EnableMetrics(reg *obs.Registry, volume string) {
	a.sched.EnableMetrics(reg, volume)
	if a.intents != nil {
		a.intents.j.EnableMetrics(reg, volume)
	}
}

// fileFAK builds the FAK for Construction 1: the locator comes from
// the user's secret (so only the user can find the header), while the
// header and content keys are the agent's global block key (§4.1.2:
// one secret key encrypts all storage blocks).
func (a *NonVolatileAgent) fileFAK(locatorSecret, path string) stegfs.FAK {
	master := sealer.KeyFromPassphrase(locatorSecret, a.vol.Salt(), a.vol.KDFIterations())
	fak := stegfs.DeriveFAKFromMaster(master, path)
	fak.HeaderKey = a.key
	fak.ContentKey = a.key
	return fak
}

// Create creates a hidden file for the user identified by
// locatorSecret. The agent retains the open handle until Close.
// Another principal's open file under the same pathname does not
// collide: handles are keyed by (path, locator).
func (a *NonVolatileAgent) Create(locatorSecret, path string) (*stegfs.File, error) {
	fak := a.fileFAK(locatorSecret, path)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, h := range a.files[path] {
		if h.f.SameLocator(fak) {
			return nil, fmt.Errorf("%w: %q", ErrExists, path)
		}
	}
	f, err := stegfs.CreateFile(a.vol, fak, path, a.source)
	if err != nil {
		return nil, err
	}
	a.files[path] = append(a.files[path], &fileHandle{f: f})
	return f, nil
}

// Open opens an existing hidden file. A cached handle is served only
// to a caller presenting the locator secret it was opened with: the
// locator is Construction 1's one per-user credential, and the handle
// cache must not become a way around it — a wrong secret falls
// through to the on-disk lookup and sees ErrNotFound,
// indistinguishable from the file not existing. Handles are keyed by
// (path, locator), so two principals may hold the same pathname open
// simultaneously without shadowing each other.
func (a *NonVolatileAgent) Open(locatorSecret, path string) (*stegfs.File, error) {
	fak := a.fileFAK(locatorSecret, path)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, h := range a.files[path] {
		if h.f.SameLocator(fak) {
			return h.f, nil
		}
	}
	f, err := stegfs.OpenFile(a.vol, fak, path, a.source)
	if err != nil {
		return nil, err
	}
	a.files[path] = append(a.files[path], &fileHandle{f: f})
	return f, nil
}

// HasOpen reports whether path is currently open with exactly the
// given handle — the cheap revalidation an FS-layer cache needs to
// notice the agent-level handle was closed underneath it, without
// re-deriving any keys.
func (a *NonVolatileAgent) HasOpen(path string, f *stegfs.File) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.ContainsFunc(a.files[path], func(h *fileHandle) bool { return h.f == f })
}

// handle returns the open handle (path, f), locked; drop also removes
// it from the table and marks it closed. A nil or unknown handle is not
// open, and neither is one a concurrent Close dropped between this
// lookup and the lock.
func (a *NonVolatileAgent) handle(path string, f *stegfs.File, drop bool) (*fileHandle, error) {
	a.mu.Lock()
	hs := a.files[path]
	i := slices.IndexFunc(hs, func(h *fileHandle) bool { return h.f == f })
	if i >= 0 && drop {
		if rest := append(hs[:i:i], hs[i+1:]...); len(rest) == 0 {
			delete(a.files, path)
		} else {
			a.files[path] = rest
		}
	}
	a.mu.Unlock()
	if i < 0 {
		return nil, fmt.Errorf("steghide: %q not open", path)
	}
	h := hs[i]
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("steghide: %q not open", path)
	}
	h.closed = drop
	return h, nil
}

// Close saves and forgets the open file (path, f).
func (a *NonVolatileAgent) Close(path string, f *stegfs.File) error {
	h, err := a.handle(path, f, true)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	return h.f.Sync(a.Policy(context.Background()))
}

// Delete removes the open file (path, f) and forgets its handle; the
// released blocks rejoin the bitmap's dummy pool, their ciphertext
// staying in place as plausible cover.
func (a *NonVolatileAgent) Delete(path string, f *stegfs.File) error {
	h, err := a.handle(path, f, true)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	if err := h.f.Delete(); err != nil {
		return err
	}
	// The file's unsaved relocations left their vacated blocks in limbo,
	// owed to a save that will not come.
	if a.intents != nil {
		a.intents.release(h.f.HeaderLoc())
	}
	return nil
}

// CloseAll saves and forgets every open handle — every principal's —
// in path order, returning the first failure. This is the teardown
// path for callers that hold no handles, such as a mounted stack.
func (a *NonVolatileAgent) CloseAll() error {
	a.mu.Lock()
	var all []*fileHandle
	for _, p := range slices.Sorted(maps.Keys(a.files)) {
		all = append(all, a.files[p]...)
	}
	a.files = map[string][]*fileHandle{}
	a.mu.Unlock()
	var firstErr error
	for _, h := range all {
		h.mu.Lock()
		h.closed = true
		err := h.f.Sync(a.Policy(context.Background()))
		h.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stat reports the current size of the open file (path, f).
func (a *NonVolatileAgent) Stat(path string, f *stegfs.File) (uint64, error) {
	h, err := a.handle(path, f, false)
	if err != nil {
		return 0, err
	}
	defer h.mu.Unlock()
	return h.f.Size(), nil
}

// Write writes data at offset off of the open file (path, f) through
// the Figure 6 update policy at once. The block map stays cached; per
// §4.1.5 the header is flushed only when the file is saved (Sync or
// Close), so header writes do not add a fixed hot block to every
// update. Writes to different files proceed concurrently. ctx is
// honored before every draw of the Figure-6 loop; blocks already
// updated when it fires keep their new content, and the cached map
// stays consistent.
func (a *NonVolatileAgent) Write(ctx context.Context, path string, f *stegfs.File, data []byte, off uint64) error {
	return a.write(ctx, path, f, data, off, (*stegfs.File).WriteAt)
}

// Stage is the write of an FS handle: data joins the file's open run
// (stegfs.File.Stage) and reaches the update stream when the run is
// full, at Sync, or when the handle is closed — under that call's
// context, not this one's. Every read of the handle sees it at once.
func (a *NonVolatileAgent) Stage(ctx context.Context, path string, f *stegfs.File, data []byte, off uint64) error {
	return a.write(ctx, path, f, data, off, (*stegfs.File).Stage)
}

func (a *NonVolatileAgent) write(ctx context.Context, path string, f *stegfs.File, data []byte, off uint64,
	put func(*stegfs.File, []byte, uint64, stegfs.UpdatePolicy) (int, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h, err := a.handle(path, f, false)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	_, err = put(h.f, data, off, a.Policy(ctx))
	return err
}

// Truncate resizes the open file (path, f) to size bytes through the
// Figure-6 policy, honoring ctx at the scheduler's wait point: growth
// materializes fresh blocks, shrinkage releases them back to the dummy
// pool (ciphertext staying in place as cover).
func (a *NonVolatileAgent) Truncate(ctx context.Context, path string, f *stegfs.File, size uint64) error {
	h, err := a.handle(path, f, false)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	return h.f.Resize(size, a.Policy(ctx))
}

// Sync flushes the open file (path, f)'s cached block map to the
// volume, issuing the file's open run first, under ctx; a failed call
// changes nothing and can be repeated.
func (a *NonVolatileAgent) Sync(ctx context.Context, path string, f *stegfs.File) error {
	h, err := a.handle(path, f, false)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	return h.f.Sync(a.Policy(ctx))
}

// Read reads len(p) bytes at offset off of the open file (path, f).
func (a *NonVolatileAgent) Read(path string, f *stegfs.File, p []byte, off uint64) (int, error) {
	h, err := a.handle(path, f, false)
	if err != nil {
		return 0, err
	}
	defer h.mu.Unlock()
	return h.f.ReadAt(p, off)
}

// Policy exposes the Figure-6 update policy bound to ctx, honored
// before every draw of the Figure-6 loop, for callers that manage
// stegfs.File handles themselves (the oblivious backend, experiments).
func (a *NonVolatileAgent) Policy(ctx context.Context) stegfs.UpdatePolicy {
	return runPolicy{ctx: ctx, sched: a.sched, fence: &a.opMu}
}

// DummyUpdateBurst issues n idle-time dummy updates on uniformly
// random blocks of the steg space (Figure 6, else-branch) in one
// batched read-reseal-write cycle: two scattered device batches
// instead of 2n single-block calls. The observable stream is n reads
// then n writes of uniformly random blocks. It returns how many
// updates were issued (always n on success for this construction).
func (a *NonVolatileAgent) DummyUpdateBurst(n int) (int, error) {
	a.opMu.RLock()
	defer a.opMu.RUnlock()
	return a.sched.DummyUpdateBurst(n)
}

// State serializes the agent's persistent memory — the data/dummy
// bitmap — for storage outside the raw volume (the "non-volatile
// memory" of the construction). The caller is responsible for
// protecting it; pairing it with the agent secret is what coercion of
// the administrator would expose. The snapshot waits for in-flight
// updates and dummy traffic to drain, so it never captures a
// half-finished relocation; a snapshot taken mid-Write still records
// freshly acquired growth blocks whose headers are unsaved — a
// conservative leak on restore, so quiesce writers for an exact image.
func (a *NonVolatileAgent) State() ([]byte, error) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	blob, err := a.source.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if a.intents != nil {
		// Mark the snapshot in the ring so fsck can bound "dirty since".
		if err := a.intents.j.AppendCheckpoint(); err != nil {
			return nil, err
		}
	}
	return blob, nil
}

// LoadState restores persistent memory saved by State. It waits for
// in-flight updates to drain; callers must not have files open, since
// their cached maps are not rewritten.
func (a *NonVolatileAgent) LoadState(data []byte) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.source.UnmarshalBinary(data)
}
