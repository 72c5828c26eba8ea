package steghide

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// obliviousFS composes a Construction-1 agent with the §5 oblivious
// cache into the full access-hiding system behind the unified FS:
// writes flow through the Figure-6 relocation policy (update hiding),
// reads flow through the hierarchical cache (read hiding), so neither
// the update stream nor the read pattern betrays anything.
//
// The oblivious store is single-threaded by design — the agent owns
// it — so every operation of this FS serializes on one mutex. Files
// touched through this FS must not also be driven through the raw
// agent API concurrently.
type obliviousFS struct {
	agent  *NonVolatileAgent
	cache  *ObliviousFS
	secret string

	mu      sync.Mutex
	entries map[string]*obliEntry
}

// obliEntry is one path's registration in the cache.
type obliEntry struct {
	ord uint64
	f   *File
}

// NewObliviousReadFS wraps a Construction-1 agent and an oblivious
// cache wired to the same volume (NewObliviousFS) as an FS for the
// user identified by locatorSecret.
func NewObliviousReadFS(agent *NonVolatileAgent, cache *ObliviousFS, locatorSecret string) FS {
	return &obliviousFS{
		agent:   agent,
		cache:   cache,
		secret:  locatorSecret,
		entries: map[string]*obliEntry{},
	}
}

// Create implements FS.
func (o *obliviousFS) Create(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "create", path); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.entries[path]; dup {
		// Same contract as every other FS implementation: creating an
		// already-open path is an error, not a silent no-op.
		return pathErr("create", path, fmt.Errorf("%w: %q", errExists, path))
	}
	f, err := o.agent.Create(o.secret, path)
	if err != nil {
		return pathErr("create", path, err)
	}
	ord := o.cache.NextOrdinal()
	if err := o.cache.Register(ord, f); err != nil {
		return pathErr("create", path, err)
	}
	o.entries[path] = &obliEntry{ord: ord, f: f}
	return nil
}

// ensureOpen opens and cache-registers path; the caller holds o.mu.
// A cached entry is revalidated against the agent so a handle closed
// at the agent level by another view is transparently reopened.
func (o *obliviousFS) ensureOpen(op, path string) (*obliEntry, error) {
	if e, ok := o.entries[path]; ok {
		if o.agent.HasOpen(path, e.f) {
			return e, nil
		}
		o.cache.Unregister(e.ord)
		delete(o.entries, path)
	}
	f, err := o.agent.Open(o.secret, path)
	if err != nil {
		return nil, pathErr(op, path, err)
	}
	ord := o.cache.NextOrdinal()
	if err := o.cache.Register(ord, f); err != nil {
		return nil, pathErr(op, path, err)
	}
	e := &obliEntry{ord: ord, f: f}
	o.entries[path] = e
	return e, nil
}

// OpenRead implements FS.
func (o *obliviousFS) OpenRead(ctx context.Context, path string) (ReadHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("open", path)
	if err != nil {
		return nil, err
	}
	return &obliHandle{fs: o, ctx: ctx, path: path, f: e.f}, nil
}

// OpenWrite implements FS.
func (o *obliviousFS) OpenWrite(ctx context.Context, path string) (WriteHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("open", path)
	if err != nil {
		return nil, err
	}
	return &obliHandle{fs: o, ctx: ctx, path: path, f: e.f, save: true}, nil
}

// Save implements FS; ensureOpen gates it behind the locator-secret
// check like every other path-keyed operation.
func (o *obliviousFS) Save(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "save", path); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("save", path)
	if err != nil {
		return err
	}
	return pathErr("save", path, o.agent.SyncHandleCtx(ctx, path, e.f))
}

// Truncate implements FS. A shrink retires the cache ordinal: the
// truncated blocks' cached copies must never resurface if the file
// grows again, so the file re-registers under a fresh ordinal and the
// old entries become unreachable.
func (o *obliviousFS) Truncate(ctx context.Context, path string, size uint64) error {
	if err := ctxErr(ctx, "truncate", path); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("truncate", path)
	if err != nil {
		return err
	}
	shrink := size < e.f.Size()
	if err := e.f.Resize(size, o.agent.PolicyCtx(ctx)); err != nil {
		return pathErr("truncate", path, err)
	}
	if shrink {
		o.cache.Unregister(e.ord)
		e.ord = o.cache.NextOrdinal()
		if err := o.cache.Register(e.ord, e.f); err != nil {
			return pathErr("truncate", path, err)
		}
	}
	return nil
}

// Delete implements FS.
func (o *obliviousFS) Delete(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "delete", path); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("delete", path)
	if err != nil {
		return err
	}
	if err := o.agent.DeleteHandle(path, e.f); err != nil {
		return pathErr("delete", path, err)
	}
	if e, ok := o.entries[path]; ok {
		o.cache.Unregister(e.ord)
		delete(o.entries, path)
	}
	return nil
}

// Stat implements FS.
func (o *obliviousFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	return o.statAs(ctx, "stat", path)
}

// Disclose implements FS: like Construction 1, the composition has no
// user-visible dummy files; Disclose is an open reporting a real file.
func (o *obliviousFS) Disclose(ctx context.Context, path string) (FileInfo, error) {
	return o.statAs(ctx, "disclose", path)
}

func (o *obliviousFS) statAs(ctx context.Context, op, path string) (FileInfo, error) {
	if err := ctxErr(ctx, op, path); err != nil {
		return FileInfo{}, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen(op, path)
	if err != nil {
		return FileInfo{}, err
	}
	size, err := o.agent.StatHandle(path, e.f)
	if err != nil {
		return FileInfo{}, pathErr(op, path, err)
	}
	return FileInfo{Path: path, Size: size}, nil
}

// List implements FS: the paths opened through this FS, sorted.
func (o *obliviousFS) List(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx, "list", ""); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.entries))
	for p := range o.entries {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// CreateDummy implements FS: unsupported on the Construction-1 base.
func (o *obliviousFS) CreateDummy(ctx context.Context, path string, _ uint64) error {
	if err := ctxErr(ctx, "createdummy", path); err != nil {
		return err
	}
	return &PathError{Op: "createdummy", Path: path, Err: ErrUnsupported}
}

// Close implements FS: save and forget every file opened through this
// FS and drop its cache registrations.
func (o *obliviousFS) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	paths := make([]string, 0, len(o.entries))
	for p := range o.entries {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var firstErr error
	for _, p := range paths {
		if err := o.agent.CloseHandle(p, o.entries[p].f); err != nil && firstErr == nil {
			firstErr = pathErr("close", p, err)
		}
		o.cache.Unregister(o.entries[p].ord)
		delete(o.entries, p)
	}
	return firstErr
}

// obliHandle is an open file of an obliviousFS; the context captured
// at open time governs its reads and writes, and the agent-level
// handle f pins Close to the file this handle was issued for — a
// handle outliving its FS must fail, not resurrect the registration.
type obliHandle struct {
	fs   *obliviousFS
	ctx  context.Context
	path string
	f    *File
	save bool
}

// ReadAt implements io.ReaderAt: the read is served through the
// oblivious cache, so its pattern reveals nothing — hits touch one
// slot per level, misses run the randomized read_stegfs fetch.
func (h *obliHandle) ReadAt(p []byte, off int64) (int, error) {
	if err := checkReadAt(h.path, off); err != nil {
		return 0, err
	}
	if err := ctxErr(h.ctx, "read", h.path); err != nil {
		return 0, err
	}
	o := h.fs
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("read", h.path)
	if err != nil {
		return 0, err
	}
	n, err := o.cache.ReadAt(e.ord, p, uint64(off))
	if err != nil {
		return n, pathErr("read", h.path, err)
	}
	return n, eofIfShort(n, len(p))
}

// WriteAt implements io.WriterAt: the write lands on the StegFS
// partition through the Figure-6 policy and is repeated into the
// cache (§5.1.2), so subsequent oblivious reads see it. Partial
// blocks read-modify-write through the cache.
func (h *obliHandle) WriteAt(p []byte, off int64) (int, error) {
	if err := checkWriteAt(h.path, off); err != nil {
		return 0, err
	}
	if err := ctxErr(h.ctx, "write", h.path); err != nil {
		return 0, err
	}
	o := h.fs
	o.mu.Lock()
	defer o.mu.Unlock()
	e, err := o.ensureOpen("write", h.path)
	if err != nil {
		return 0, err
	}
	if err := o.writeLocked(h.ctx, e, h.path, p, uint64(off)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeLocked performs the block-granular write; the caller holds
// o.mu.
func (o *obliviousFS) writeLocked(ctx context.Context, e *obliEntry, path string, p []byte, off uint64) error {
	vol := o.agent.Vol()
	ps := uint64(vol.PayloadSize())
	policy := o.agent.PolicyCtx(ctx)
	f := e.f
	if end := off + uint64(len(p)); end > f.Size() {
		if err := f.Resize(end, policy); err != nil {
			return pathErr("write", path, err)
		}
	}
	written := uint64(0)
	for written < uint64(len(p)) {
		li := (off + written) / ps
		bo := (off + written) % ps
		n := ps - bo
		if rest := uint64(len(p)) - written; n > rest {
			n = rest
		}
		var payload []byte
		if bo != 0 || n < ps {
			// Partial block: read-modify-write through the cache, so
			// the fetch is as oblivious as any other read.
			payload = make([]byte, ps)
			if err := o.cache.ReadBlock(e.ord, li, payload); err != nil {
				return pathErr("write", path, err)
			}
			copy(payload[bo:], p[written:written+n])
		} else {
			payload = p[written : written+n]
		}
		if err := o.cache.WriteBlock(e.ord, li, payload, policy); err != nil {
			return pathErr("write", path, err)
		}
		written += n
	}
	return nil
}

// Close implements io.Closer; write handles flush the block map —
// through the handle pinned at open time, so a Close racing (or
// following) the FS's own Close fails with "not open" instead of
// silently reopening and re-registering the file.
func (h *obliHandle) Close() error {
	if !h.save {
		return nil
	}
	return pathErr("close", h.path, h.fs.agent.SyncHandleCtx(h.ctx, h.path, h.f))
}
