package steghide

import (
	"context"
	"fmt"
	"sync"
)

// obliBackend is the Construction-1 backend with the §5 oblivious
// cache in front: writes flow through the Figure-6 policy (update
// hiding) and are repeated into the cache, reads flow through the
// cache (read hiding), each open file registered under an ordinal. The
// store is single-threaded by design, so every cache-touching call
// serializes on one mutex; files touched through this FS must not also
// be driven through the raw agent API concurrently.
type obliBackend struct {
	agentBackend
	cache *ObliviousFS

	mu   sync.Mutex
	ords map[*File]uint64 // each open file's cache ordinal
}

// NewObliviousReadFS wraps a Construction-1 agent and an oblivious
// cache wired to the same volume (NewObliviousFS) as an FS for the
// user identified by locatorSecret.
func NewObliviousReadFS(agent *NonVolatileAgent, cache *ObliviousFS, locatorSecret string) FS {
	return newFS(&obliBackend{
		agentBackend: agentBackend{agent: agent, secret: locatorSecret},
		cache:        cache,
		ords:         map[*File]uint64{},
	})
}

// track registers of's file in the cache unless it already is and
// retires the stale row it replaced; the caller holds b.mu.
func (b *obliBackend) track(known, of *openFile, err error) (*openFile, error) {
	if err != nil {
		return nil, err
	}
	if known != nil && known.f != of.f {
		b.retire(known.f)
	}
	if _, ok := b.ords[of.f]; !ok {
		ord := b.cache.NextOrdinal()
		if err := b.cache.Register(ord, of.f); err != nil {
			return nil, err
		}
		b.ords[of.f] = ord
	}
	return of, nil
}

// retire drops f's cache registration: its cached blocks become
// unreachable, because ordinals are never reused.
func (b *obliBackend) retire(f *File) {
	if ord, ok := b.ords[f]; ok {
		b.cache.Unregister(ord)
		delete(b.ords, f)
	}
}

// pinned returns the ordinal of the file a handle was issued for,
// failing once that file is no longer open at the agent; the caller
// holds b.mu.
func (b *obliBackend) pinned(of *openFile, path string) (uint64, error) {
	if !b.agent.HasOpen(path, of.f) {
		return 0, fmt.Errorf("steghide: %q not open", path)
	}
	return b.ords[of.f], nil
}

func (b *obliBackend) open(ctx context.Context, path string, known *openFile, sized bool) (*openFile, uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	of, size, err := b.agentBackend.open(ctx, path, known, sized)
	of, err = b.track(known, of, err)
	return of, size, err
}

func (b *obliBackend) create(ctx context.Context, path string, dummy bool, blocks uint64) (*openFile, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	of, err := b.agentBackend.create(ctx, path, dummy, blocks)
	return b.track(nil, of, err)
}

// read goes through the oblivious cache, so its pattern reveals
// nothing — hits touch one slot per level, misses run the randomized
// read_stegfs fetch.
func (b *obliBackend) read(_ context.Context, of *openFile, path string, p []byte, off uint64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ord, err := b.pinned(of, path)
	if err != nil {
		return 0, err
	}
	return b.cache.ReadAt(ord, p, off)
}

// write lands on the StegFS partition through the Figure-6 policy at
// once and is repeated into the cache (§5.1.2), so later oblivious
// reads see it. Partial blocks read-modify-write through the cache.
func (b *obliBackend) write(ctx context.Context, of *openFile, path string, p []byte, off uint64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ord, err := b.pinned(of, path)
	if err != nil {
		return 0, err
	}
	ps := uint64(b.agent.Vol().PayloadSize())
	policy := b.agent.PolicyCtx(ctx)
	if end := off + uint64(len(p)); end > of.f.Size() {
		if err := of.f.Resize(end, policy); err != nil {
			return 0, err
		}
	}
	for written := uint64(0); written < uint64(len(p)); {
		li, bo := (off+written)/ps, (off+written)%ps
		n := min(ps-bo, uint64(len(p))-written)
		payload := p[written : written+n]
		if n < ps {
			// Partial block: read-modify-write through the cache, so the
			// fetch is as oblivious as any other read.
			payload = make([]byte, ps)
			if err := b.cache.ReadBlock(ord, li, payload); err != nil {
				return 0, err
			}
			copy(payload[bo:], p[written:written+n])
		}
		if err := b.cache.WriteBlock(ord, li, payload, policy); err != nil {
			return 0, err
		}
		written += n
	}
	return 0, nil
}

func (b *obliBackend) save(ctx context.Context, of *openFile, path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.agentBackend.save(ctx, of, path)
}

// truncate retires the cache ordinal on a shrink: the truncated
// blocks' cached copies must never resurface if the file grows again,
// so the file re-registers under a fresh ordinal.
func (b *obliBackend) truncate(ctx context.Context, of *openFile, path string, size uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	shrink := size < of.f.Size()
	if err := b.agentBackend.truncate(ctx, of, path, size); err != nil || !shrink {
		return err
	}
	b.retire(of.f)
	_, err := b.track(nil, of, nil)
	return err
}

func (b *obliBackend) delete(ctx context.Context, of *openFile, path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.agentBackend.delete(ctx, of, path)
	if err == nil {
		b.retire(of.f)
	}
	return err
}

// close saves and forgets every file opened through this FS and drops
// its cache registrations.
func (b *obliBackend) close(files map[string]*openFile) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.agentBackend.close(files)
	for f := range b.ords {
		b.retire(f)
	}
	return err
}
