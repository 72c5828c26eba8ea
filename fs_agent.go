package steghide

import (
	"context"
	"maps"
	"slices"
)

// agentBackend is a Construction-1 agent (§4.1, "StegHide*") plus one
// user's locator secret, which only derives where the user's headers
// live. The agent's handle table is keyed by (path, locator), so every
// row pins the agent handle it was opened with and every agent call
// names it: two principals may hold one pathname open without either
// shadowing the other, and a wrong secret sees ErrNotFound.
type agentBackend struct {
	agent  *NonVolatileAgent
	secret string
}

// NewAgentFS wraps a Construction-1 agent as an FS for the user
// identified by locatorSecret. Close saves and forgets every file
// opened through this FS.
func NewAgentFS(agent *NonVolatileAgent, locatorSecret string) FS {
	return newFS(&agentBackend{agent: agent, secret: locatorSecret})
}

// open revalidates the pinned handle, so one closed at the agent by
// another FS is reopened under this FS's secret — through the locator
// check, so a wrong secret cannot probe another principal's file.
func (b *agentBackend) open(_ context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error) {
	of := known
	if of == nil || !b.agent.HasOpen(path, of.f) {
		f, err := b.agent.Open(b.secret, path)
		if err != nil {
			return nil, 0, err
		}
		of = &openFile{f: f}
	}
	if !sized {
		return of, 0, nil
	}
	size, err := b.agent.Stat(path, of.f)
	return of, size, err
}

// create refuses dummy files: in Construction 1 every free block
// already belongs to the one implicit dummy file the agent tracks in
// its bitmap, so there is nothing for a user to create or deny with.
func (b *agentBackend) create(_ context.Context, path string, dummy bool, _ uint64) (*openFile, error) {
	if dummy {
		return nil, ErrUnsupported
	}
	f, err := b.agent.Create(b.secret, path)
	return &openFile{f: f}, err
}

func (b *agentBackend) read(_ context.Context, of *openFile, path string, p []byte, off uint64) (int, error) {
	return b.agent.Read(path, of.f, p, off)
}

// write stages into the file's open run (see WriteHandle).
func (b *agentBackend) write(ctx context.Context, of *openFile, path string, p []byte, off uint64) (int, error) {
	return 0, b.agent.Stage(ctx, path, of.f, p, off)
}

func (b *agentBackend) save(ctx context.Context, of *openFile, path string) error {
	return b.agent.Sync(ctx, path, of.f)
}

func (b *agentBackend) truncate(ctx context.Context, of *openFile, path string, size uint64) error {
	return b.agent.Truncate(ctx, path, of.f, size)
}

func (b *agentBackend) delete(_ context.Context, of *openFile, path string) error {
	return b.agent.Delete(path, of.f)
}

// list defers to the open-file table: the agent lists every principal.
func (b *agentBackend) list(context.Context) ([]string, error) { return nil, nil }

// close saves and forgets this FS's handles, never another principal's
// under a shared pathname, returning the first failure.
func (b *agentBackend) close(files map[string]*openFile) error {
	var firstErr error
	for _, p := range slices.Sorted(maps.Keys(files)) {
		if err := b.agent.Close(p, files[p].f); err != nil && firstErr == nil {
			firstErr = pathErr("close", p, err)
		}
	}
	return firstErr
}
