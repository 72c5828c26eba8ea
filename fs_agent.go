package steghide

import (
	"context"
	"sort"
	"sync"
)

// agentFS adapts a Construction-1 agent (§4.1, "StegHide*") plus one
// user's locator secret to the unified FS. The agent holds the block
// key and the data/dummy bitmap; the secret only derives where this
// user's headers live.
//
// The agent's handle table is keyed by (path, locator), so two
// principals may hold the same pathname open simultaneously — each
// operates on their own file through the handle this FS was issued at
// open time, and neither shadows the other. A wrong secret still sees
// ErrNotFound, indistinguishable from the file not existing.
type agentFS struct {
	agent  *NonVolatileAgent
	secret string

	mu     sync.Mutex
	opened map[string]*File // paths this FS opened → the agent handle
}

// NewAgentFS wraps a Construction-1 agent as an FS for the user
// identified by locatorSecret. Close saves and forgets every file
// opened through this FS.
func NewAgentFS(agent *NonVolatileAgent, locatorSecret string) FS {
	return &agentFS{agent: agent, secret: locatorSecret, opened: map[string]*File{}}
}

// Create implements FS.
func (a *agentFS) Create(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "create", path); err != nil {
		return err
	}
	f, err := a.agent.Create(a.secret, path)
	if err != nil {
		return pathErr("create", path, err)
	}
	a.mu.Lock()
	a.opened[path] = f
	a.mu.Unlock()
	return nil
}

// ensureOpen opens path with the agent unless this FS already did —
// and revalidates the cached handle against the agent, so a handle
// closed at the agent level by another FS over the same agent is
// transparently reopened under this FS's secret instead of failing
// with a stale-handle error. It returns the handle every subsequent
// agent call must name: the handle, not the pathname, identifies this
// principal's file once two locators share a path.
func (a *agentFS) ensureOpen(op, path string) (*File, error) {
	a.mu.Lock()
	known := a.opened[path]
	a.mu.Unlock()
	if known != nil && a.agent.HasOpen(path, known) {
		return known, nil
	}
	f, err := a.agent.Open(a.secret, path)
	if err != nil {
		a.mu.Lock()
		delete(a.opened, path)
		a.mu.Unlock()
		return nil, pathErr(op, path, err)
	}
	a.mu.Lock()
	a.opened[path] = f
	a.mu.Unlock()
	return f, nil
}

// OpenRead implements FS.
func (a *agentFS) OpenRead(ctx context.Context, path string) (ReadHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	f, err := a.ensureOpen("open", path)
	if err != nil {
		return nil, err
	}
	return &agentHandle{fs: a, ctx: ctx, path: path, f: f}, nil
}

// OpenWrite implements FS.
func (a *agentFS) OpenWrite(ctx context.Context, path string) (WriteHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	f, err := a.ensureOpen("open", path)
	if err != nil {
		return nil, err
	}
	return &agentHandle{fs: a, ctx: ctx, path: path, f: f, save: true}, nil
}

// Save implements FS. Like every path-keyed operation it goes
// through ensureOpen, so the locator-secret check gates it — a wrong
// secret sees ErrNotFound instead of flushing (and thereby probing)
// another principal's open file.
func (a *agentFS) Save(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "save", path); err != nil {
		return err
	}
	f, err := a.ensureOpen("save", path)
	if err != nil {
		return err
	}
	return pathErr("save", path, a.agent.SyncHandleCtx(ctx, path, f))
}

// Truncate implements FS.
func (a *agentFS) Truncate(ctx context.Context, path string, size uint64) error {
	if err := ctxErr(ctx, "truncate", path); err != nil {
		return err
	}
	f, err := a.ensureOpen("truncate", path)
	if err != nil {
		return err
	}
	return pathErr("truncate", path, a.agent.TruncateHandleCtx(ctx, path, f, size))
}

// Delete implements FS, opening the file first when needed — like
// unlink, deleting must not require a prior open.
func (a *agentFS) Delete(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "delete", path); err != nil {
		return err
	}
	f, err := a.ensureOpen("delete", path)
	if err != nil {
		return err
	}
	if err := a.agent.DeleteHandle(path, f); err != nil {
		return pathErr("delete", path, err)
	}
	a.mu.Lock()
	delete(a.opened, path)
	a.mu.Unlock()
	return nil
}

// Stat implements FS.
func (a *agentFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	return a.statAs(ctx, "stat", path)
}

// Disclose implements FS: Construction 1 has no deniable dummy files
// (free blocks are implicitly the dummy file), so Disclose is an open
// that always reports a real file.
func (a *agentFS) Disclose(ctx context.Context, path string) (FileInfo, error) {
	return a.statAs(ctx, "disclose", path)
}

func (a *agentFS) statAs(ctx context.Context, op, path string) (FileInfo, error) {
	if err := ctxErr(ctx, op, path); err != nil {
		return FileInfo{}, err
	}
	f, err := a.ensureOpen(op, path)
	if err != nil {
		return FileInfo{}, err
	}
	size, err := a.agent.StatHandle(path, f)
	if err != nil {
		return FileInfo{}, pathErr(op, path, err)
	}
	return FileInfo{Path: path, Size: size}, nil
}

// List implements FS: the paths opened through this FS, sorted.
func (a *agentFS) List(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx, "list", ""); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.opened))
	for p := range a.opened {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// CreateDummy implements FS: unsupported — in Construction 1 every
// free block already belongs to the one implicit dummy file the agent
// tracks in its bitmap, so there is nothing for a user to create or
// deny with.
func (a *agentFS) CreateDummy(ctx context.Context, path string, _ uint64) error {
	if err := ctxErr(ctx, "createdummy", path); err != nil {
		return err
	}
	return &PathError{Op: "createdummy", Path: path, Err: ErrUnsupported}
}

// Close implements FS: save and forget every file opened through this
// FS — and only this FS's handles, never another principal's under a
// shared pathname — returning the first failure.
func (a *agentFS) Close() error {
	a.mu.Lock()
	opened := a.opened
	a.opened = map[string]*File{}
	a.mu.Unlock()
	paths := make([]string, 0, len(opened))
	for p := range opened {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var firstErr error
	for _, p := range paths {
		if err := a.agent.CloseHandle(p, opened[p]); err != nil && firstErr == nil {
			firstErr = pathErr("close", p, err)
		}
	}
	return firstErr
}

// agentHandle is an open file of an agentFS; the context captured at
// open time governs its reads and writes, and the agent-level handle
// f pins which principal's file the operations touch.
type agentHandle struct {
	fs   *agentFS
	ctx  context.Context
	path string
	f    *File
	save bool
}

// ReadAt implements io.ReaderAt.
func (h *agentHandle) ReadAt(p []byte, off int64) (int, error) {
	if err := checkReadAt(h.path, off); err != nil {
		return 0, err
	}
	if err := ctxErr(h.ctx, "read", h.path); err != nil {
		return 0, err
	}
	n, err := h.fs.agent.ReadHandle(h.path, h.f, p, uint64(off))
	if err != nil {
		return n, pathErr("read", h.path, err)
	}
	return n, eofIfShort(n, len(p))
}

// WriteAt implements io.WriterAt: the touched blocks join the file's
// open run and go through the Figure-6 update policy with it.
func (h *agentHandle) WriteAt(p []byte, off int64) (int, error) {
	if err := checkWriteAt(h.path, off); err != nil {
		return 0, err
	}
	if err := h.fs.agent.StageHandleCtx(h.ctx, h.path, h.f, p, uint64(off)); err != nil {
		return 0, pathErr("write", h.path, err)
	}
	return len(p), nil
}

// Close implements io.Closer; write handles issue the open run and
// flush the block map.
func (h *agentHandle) Close() error {
	if !h.save {
		return nil
	}
	return pathErr("close", h.path, h.fs.agent.SyncHandleCtx(h.ctx, h.path, h.f))
}
