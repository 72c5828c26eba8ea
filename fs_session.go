package steghide

import (
	"context"
)

// sessionFS adapts a Construction-2 login (§4.2, "StegHide") to the
// unified FS. One sessionFS is one user's view of the volume: the
// files they disclosed, the dummy files they can deny with.
type sessionFS struct {
	agent *VolatileAgent
	sess  *Session
}

// NewSessionFS wraps an open Construction-2 session as an FS. Close
// logs the user out, at which point the agent forgets every key and
// block the session disclosed — the volatility property.
func NewSessionFS(agent *VolatileAgent, session *Session) FS {
	return &sessionFS{agent: agent, sess: session}
}

// Create implements FS.
func (s *sessionFS) Create(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "create", path); err != nil {
		return err
	}
	_, err := s.sess.Create(path)
	return pathErr("create", path, err)
}

// ensureOpen discloses path unless the session already holds it.
func (s *sessionFS) ensureOpen(op, path string) error {
	if _, ok := s.sess.Open(path); ok {
		return nil
	}
	_, err := s.sess.Disclose(path)
	return pathErr(op, path, err)
}

// ensureReal is ensureOpen plus a dummy-file guard: content
// operations (read, write, truncate, delete) are defined on real
// files only — a dummy file's bytes are meaningless cover the agent
// rewrites at will, so handing out a handle would promise content
// that does not exist.
func (s *sessionFS) ensureReal(op, path string) error {
	if err := s.ensureOpen(op, path); err != nil {
		return err
	}
	if _, dummy, err := s.sess.Stat(path); err != nil {
		return pathErr(op, path, err)
	} else if dummy {
		return &PathError{Op: op, Path: path, Err: ErrUnsupported}
	}
	return nil
}

// OpenRead implements FS.
func (s *sessionFS) OpenRead(ctx context.Context, path string) (ReadHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	if err := s.ensureReal("open", path); err != nil {
		return nil, err
	}
	return &sessionHandle{fs: s, ctx: ctx, path: path}, nil
}

// OpenWrite implements FS.
func (s *sessionFS) OpenWrite(ctx context.Context, path string) (WriteHandle, error) {
	if err := ctxErr(ctx, "open", path); err != nil {
		return nil, err
	}
	if err := s.ensureReal("open", path); err != nil {
		return nil, err
	}
	return &sessionHandle{fs: s, ctx: ctx, path: path, save: true}, nil
}

// Save implements FS (dummy files save too — their block maps are
// real even if their content is not).
func (s *sessionFS) Save(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "save", path); err != nil {
		return err
	}
	if err := s.ensureOpen("save", path); err != nil {
		return err
	}
	return pathErr("save", path, s.sess.SaveCtx(ctx, path))
}

// Truncate implements FS.
func (s *sessionFS) Truncate(ctx context.Context, path string, size uint64) error {
	if err := ctxErr(ctx, "truncate", path); err != nil {
		return err
	}
	if err := s.ensureReal("truncate", path); err != nil {
		return err
	}
	return pathErr("truncate", path, s.sess.TruncateCtx(ctx, path, size))
}

// Delete implements FS, disclosing the file first when needed — like
// unlink, deleting must not require a prior open.
func (s *sessionFS) Delete(ctx context.Context, path string) error {
	if err := ctxErr(ctx, "delete", path); err != nil {
		return err
	}
	if err := s.ensureReal("delete", path); err != nil {
		return err
	}
	return pathErr("delete", path, s.sess.Delete(path))
}

// Stat implements FS.
func (s *sessionFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	return s.statAs(ctx, "stat", path)
}

// Disclose implements FS.
func (s *sessionFS) Disclose(ctx context.Context, path string) (FileInfo, error) {
	return s.statAs(ctx, "disclose", path)
}

func (s *sessionFS) statAs(ctx context.Context, op, path string) (FileInfo, error) {
	if err := ctxErr(ctx, op, path); err != nil {
		return FileInfo{}, err
	}
	if err := s.ensureOpen(op, path); err != nil {
		return FileInfo{}, err
	}
	size, dummy, err := s.sess.Stat(path)
	if err != nil {
		return FileInfo{}, pathErr(op, path, err)
	}
	return FileInfo{Path: path, Size: size, Dummy: dummy}, nil
}

// List implements FS.
func (s *sessionFS) List(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx, "list", ""); err != nil {
		return nil, err
	}
	return s.sess.Files(), nil
}

// CreateDummy implements FS.
func (s *sessionFS) CreateDummy(ctx context.Context, path string, blocks uint64) error {
	if err := ctxErr(ctx, "createdummy", path); err != nil {
		return err
	}
	_, err := s.sess.CreateDummy(path, blocks)
	return pathErr("createdummy", path, err)
}

// Close implements FS: logout, after which the agent knows nothing of
// this user's files.
func (s *sessionFS) Close() error {
	return pathErr("close", "", s.agent.Logout(s.sess.User()))
}

// sessionHandle is an open file of a sessionFS. The context captured
// at open time governs its reads and writes (io.ReaderAt/io.WriterAt
// carry none), honored at the scheduler's draw loop.
type sessionHandle struct {
	fs   *sessionFS
	ctx  context.Context
	path string
	save bool // write handles flush the block map on Close
}

// ReadAt implements io.ReaderAt.
func (h *sessionHandle) ReadAt(p []byte, off int64) (int, error) {
	if err := checkReadAt(h.path, off); err != nil {
		return 0, err
	}
	if err := ctxErr(h.ctx, "read", h.path); err != nil {
		return 0, err
	}
	n, err := h.fs.sess.Read(h.path, p, uint64(off))
	if err != nil {
		return n, pathErr("read", h.path, err)
	}
	return n, eofIfShort(n, len(p))
}

// WriteAt implements io.WriterAt: every touched block joins the file's
// open run and flows through the Figure-6 relocation policy with it.
func (h *sessionHandle) WriteAt(p []byte, off int64) (int, error) {
	if err := checkWriteAt(h.path, off); err != nil {
		return 0, err
	}
	if err := h.fs.sess.StageCtx(h.ctx, h.path, p, uint64(off)); err != nil {
		return 0, pathErr("write", h.path, err)
	}
	return len(p), nil
}

// Close implements io.Closer; write handles issue the open run and
// save the block map.
func (h *sessionHandle) Close() error {
	if !h.save {
		return nil
	}
	return pathErr("close", h.path, h.fs.sess.SaveCtx(h.ctx, h.path))
}
