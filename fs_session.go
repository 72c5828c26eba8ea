package steghide

import "context"

// sessionBackend is a Construction-2 login (§4.2, "StegHide"): one
// user's view of the volume — the files they disclosed, the dummy
// files they can deny with. The session keeps the file list.
type sessionBackend struct {
	agent *VolatileAgent
	sess  *Session
}

// NewSessionFS wraps an open Construction-2 session as an FS. Close
// logs the user out, at which point the agent forgets every key and
// block the session disclosed — the volatility property.
func NewSessionFS(agent *VolatileAgent, session *Session) FS {
	return newFS(&sessionBackend{agent: agent, sess: session})
}

// open discloses path unless the session already holds it; the dummy
// flag and the size come from the session's Stat.
func (b *sessionBackend) open(_ context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error) {
	if _, ok := b.sess.Open(path); !ok {
		if _, err := b.sess.Disclose(path); err != nil {
			return nil, 0, err
		}
	} else if known != nil && !sized {
		return known, 0, nil
	}
	size, dummy, err := b.sess.Stat(path)
	return kindRow[dummy], size, err
}

func (b *sessionBackend) create(_ context.Context, path string, dummy bool, blocks uint64) (*openFile, error) {
	if dummy {
		_, err := b.sess.CreateDummy(path, blocks)
		return kindRow[true], err
	}
	_, err := b.sess.Create(path)
	return kindRow[false], err
}

func (b *sessionBackend) read(_ context.Context, _ *openFile, path string, p []byte, off uint64) (int, error) {
	return b.sess.Read(path, p, off)
}

// write stages into the file's open run (see WriteHandle).
func (b *sessionBackend) write(ctx context.Context, _ *openFile, path string, p []byte, off uint64) (int, error) {
	return 0, b.sess.StageCtx(ctx, path, p, off)
}

func (b *sessionBackend) save(ctx context.Context, _ *openFile, path string) error {
	return b.sess.SaveCtx(ctx, path)
}

func (b *sessionBackend) truncate(ctx context.Context, _ *openFile, path string, size uint64) error {
	return b.sess.TruncateCtx(ctx, path, size)
}

func (b *sessionBackend) delete(_ context.Context, _ *openFile, path string) error {
	return b.sess.Delete(path)
}

func (b *sessionBackend) list(context.Context) ([]string, error) { return b.sess.Files(), nil }

// close logs out: the agent forgets this user's files.
func (b *sessionBackend) close(map[string]*openFile) error {
	return b.agent.Logout(b.sess.User())
}
