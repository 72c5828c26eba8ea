package steghide

import (
	"context"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// openFile is one path's row in an FS's open-file table: what the
// backend pinned when it opened the path. Rows are never mutated, so
// backends that pin only the file's kind share kindRow[dummy].
type openFile struct {
	f     *File // the agent-level handle (Construction 1)
	dummy bool  // a deniable dummy file: no content operations
}

var kindRow = map[bool]*openFile{false: {}, true: {dummy: true}}

// backend holds the primitives the constructions really differ in;
// fsCore owns the rest — closed state, context check, open-file table,
// dummy-file guard, handles — and wraps the bare errors it returns.
type backend interface {
	// open returns path's row: known (the table's row, nil if none)
	// when the backend still holds it, otherwise a fresh disclosure.
	// With sized set it is stat, and reports the file's current size.
	open(ctx context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error)
	// create makes a real file, or a dummy file of blocks blocks, and
	// leaves it open.
	create(ctx context.Context, path string, dummy bool, blocks uint64) (*openFile, error)
	read(ctx context.Context, of *openFile, path string, p []byte, off uint64) (int, error)
	// write reports, with a failure, how much of p landed before it.
	write(ctx context.Context, of *openFile, path string, p []byte, off uint64) (int, error)
	// save issues the file's staged writes and saves its block map.
	save(ctx context.Context, of *openFile, path string) error
	truncate(ctx context.Context, of *openFile, path string, size uint64) error
	delete(ctx context.Context, of *openFile, path string) error
	// list returns the principal's files sorted, or nil when the backend
	// keeps no list of its own: then the open-file table is the list.
	list(ctx context.Context) ([]string, error)
	// close ends the principal's view, given the table's last rows.
	close(files map[string]*openFile) error
}

// fsCore is the one FS implementation behind every front-end but
// Cluster: one principal's view over one backend. Once Close has run
// every method, and every handle it issued, fails with os.ErrClosed.
type fsCore struct {
	b      backend
	closed atomic.Bool

	mu    sync.Mutex
	files map[string]*openFile
}

func newFS(b backend) FS { return &fsCore{b: b, files: map[string]*openFile{}} }

// enter is every operation's first check: a closed FS, then an
// expired context.
func (c *fsCore) enter(ctx context.Context, op, path string) error {
	err := ctx.Err()
	if c.closed.Load() {
		err = os.ErrClosed
	}
	return pathErr(op, path, err)
}

// keep records path's row, or forgets it when of is nil.
func (c *fsCore) keep(path string, of *openFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if of == nil {
		delete(c.files, path)
	} else {
		c.files[path] = of
	}
}

// open returns path's row — and, when sized, the file's size —
// disclosing the file unless the table holds a row the backend still
// honours.
func (c *fsCore) open(ctx context.Context, op, path string, sized bool) (*openFile, uint64, error) {
	if err := c.enter(ctx, op, path); err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	known := c.files[path]
	c.mu.Unlock()
	of, size, err := c.b.open(ctx, path, known, sized)
	if err != nil {
		c.keep(path, nil)
		return nil, 0, pathErr(op, path, err)
	}
	if of != known {
		c.keep(path, of)
	}
	return of, size, nil
}

// openReal is open plus the dummy-file guard: a dummy file's bytes are
// cover the agent rewrites at will, so content operations refuse it.
func (c *fsCore) openReal(ctx context.Context, op, path string) (*openFile, error) {
	of, _, err := c.open(ctx, op, path, false)
	if err == nil && of.dummy {
		return nil, &PathError{Op: op, Path: path, Err: ErrUnsupported}
	}
	return of, err
}

// Create implements FS; the new file is left open.
func (c *fsCore) Create(ctx context.Context, path string) error {
	return c.create(ctx, "create", path, false, 0)
}

// CreateDummy implements FS.
func (c *fsCore) CreateDummy(ctx context.Context, path string, blocks uint64) error {
	return c.create(ctx, "createdummy", path, true, blocks)
}

func (c *fsCore) create(ctx context.Context, op, path string, dummy bool, blocks uint64) error {
	if err := c.enter(ctx, op, path); err != nil {
		return err
	}
	of, err := c.b.create(ctx, path, dummy, blocks)
	if err != nil {
		return pathErr(op, path, err)
	}
	c.keep(path, of)
	return nil
}

// OpenRead implements FS.
func (c *fsCore) OpenRead(ctx context.Context, path string) (ReadHandle, error) {
	of, err := c.openReal(ctx, "open", path)
	if err != nil {
		return nil, err
	}
	return &handle{c: c, ctx: ctx, path: path, of: of}, nil
}

// OpenWrite implements FS.
func (c *fsCore) OpenWrite(ctx context.Context, path string) (WriteHandle, error) {
	of, err := c.openReal(ctx, "open", path)
	if err != nil {
		return nil, err
	}
	return &handle{c: c, ctx: ctx, path: path, of: of, save: true}, nil
}

// Save implements FS (dummy files save too — their block maps are real
// even if their content is not).
func (c *fsCore) Save(ctx context.Context, path string) error {
	of, _, err := c.open(ctx, "save", path, false)
	if err != nil {
		return err
	}
	return pathErr("save", path, c.b.save(ctx, of, path))
}

// Truncate implements FS.
func (c *fsCore) Truncate(ctx context.Context, path string, size uint64) error {
	of, err := c.openReal(ctx, "truncate", path)
	if err != nil {
		return err
	}
	return pathErr("truncate", path, c.b.truncate(ctx, of, path, size))
}

// Delete implements FS, disclosing the file first when needed — like
// unlink, deleting must not require a prior open.
func (c *fsCore) Delete(ctx context.Context, path string) error {
	of, err := c.openReal(ctx, "delete", path)
	if err != nil {
		return err
	}
	if err := c.b.delete(ctx, of, path); err != nil {
		return pathErr("delete", path, err)
	}
	c.keep(path, nil)
	return nil
}

// Stat implements FS.
func (c *fsCore) Stat(ctx context.Context, path string) (FileInfo, error) {
	return c.statAs(ctx, "stat", path)
}

// Disclose implements FS.
func (c *fsCore) Disclose(ctx context.Context, path string) (FileInfo, error) {
	return c.statAs(ctx, "disclose", path)
}

func (c *fsCore) statAs(ctx context.Context, op, path string) (FileInfo, error) {
	of, size, err := c.open(ctx, op, path, true)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: path, Size: size, Dummy: of.dummy}, nil
}

// List implements FS.
func (c *fsCore) List(ctx context.Context) ([]string, error) {
	if err := c.enter(ctx, "list", ""); err != nil {
		return nil, err
	}
	paths, err := c.b.list(ctx)
	if err != nil || paths != nil {
		return paths, pathErr("list", "", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.files)), nil
}

// Close implements FS: the backend ends the principal's view and the
// FS stays closed.
func (c *fsCore) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	files := c.files
	c.files = map[string]*openFile{}
	c.mu.Unlock()
	return pathErr("close", "", c.b.close(files))
}

// handle is an open file of an fsCore. The context captured at open
// time governs its reads and writes (io.ReaderAt/io.WriterAt carry
// none), and the row pins the file it was issued for.
type handle struct {
	c    *fsCore
	ctx  context.Context
	path string
	of   *openFile
	save bool // write handles save the file on Close
}

func (h *handle) enter(op string, off int64) error {
	if off < 0 {
		return &PathError{Op: op, Path: h.path, Err: errNegativeOffset}
	}
	return h.c.enter(h.ctx, op, h.path)
}

// ReadAt implements io.ReaderAt.
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.enter("read", off); err != nil {
		return 0, err
	}
	n, err := h.c.b.read(h.ctx, h.of, h.path, p, uint64(off))
	if err != nil {
		return n, pathErr("read", h.path, err)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt through the update-hiding policy.
func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	if err := h.enter("write", off); err != nil {
		return 0, err
	}
	if n, err := h.c.b.write(h.ctx, h.of, h.path, p, uint64(off)); err != nil {
		return n, pathErr("write", h.path, err)
	}
	return len(p), nil
}

// Close implements io.Closer; write handles issue what they staged and
// save the file's block map, under the handle's context.
func (h *handle) Close() error {
	if !h.save {
		return nil
	}
	if h.c.closed.Load() {
		return &PathError{Op: "close", Path: h.path, Err: os.ErrClosed}
	}
	return pathErr("close", h.path, h.c.b.save(h.ctx, h.of, h.path))
}
