package steghide

import (
	"context"
	"errors"
	"io"

	"steghide/internal/mempool"
)

// FS is the unified filesystem surface of the system model (§3.2):
// users issue file requests, the trusted agent hides the accesses,
// and the raw storage sees one uniform stream. Every front-end of
// this package returns the same implementation over a different
// backend — Construction 2 sessions (NewSessionFS, Stack.Login),
// Construction 1 agents (NewAgentFS), remote agent connections
// (DialFS, DialVolumeFS), and the §5 read-hiding composition
// (NewObliviousReadFS) — and Cluster routes over any of them, so no
// caller has to care which construction sits behind the interface,
// and no hiding guarantee depends on it.
//
// Every operation takes a context.Context, honored at the points
// where an operation can genuinely wait: the scheduler's Figure-6
// draw loop (a write hunting for a relocation target) and the wire
// round trip (deadline bounds the call; cancellation interrupts an
// in-flight frame). Failed operations return a *PathError wrapping
// one of the package sentinels, so errors.Is works identically
// against every implementation, local or remote.
//
// An FS is one principal's view — a login, an agent secret, a
// connection. Close releases it (logout, handle flush, hangup); the
// backing stack keeps running. After Close every method, and every
// handle the FS issued (reads, writes and a write handle's Close),
// fails with a *PathError wrapping os.ErrClosed; so does every method
// called under an already expired context, with the context's error.
type FS interface {
	// Create creates an empty hidden file at path and leaves it open.
	Create(ctx context.Context, path string) error
	// OpenRead opens path for reading. The context also governs later
	// reads through the handle (io.ReaderAt carries no context).
	OpenRead(ctx context.Context, path string) (ReadHandle, error)
	// OpenWrite opens path for writing through the construction's
	// update-hiding policy. The context also governs later writes
	// through the handle.
	OpenWrite(ctx context.Context, path string) (WriteHandle, error)
	// Save flushes path's cached block map (header and pointer
	// blocks) to the volume — the durability point (§4.1.5). It first
	// issues what the path's write handles have staged, as one run; a
	// failed Save leaves that staged and can be repeated.
	Save(ctx context.Context, path string) error
	// Truncate resizes path to size bytes: growth materializes fresh
	// blocks through the update-hiding policy, shrinkage releases
	// blocks to the construction's dummy space (their ciphertext
	// staying in place as cover).
	Truncate(ctx context.Context, path string, size uint64) error
	// Delete removes path; its blocks rejoin the construction's dummy
	// space, their ciphertext staying in place as plausible cover.
	Delete(ctx context.Context, path string) error
	// Stat reports path's current size (and dummy flag where the
	// construction distinguishes one), opening the file if needed.
	Stat(ctx context.Context, path string) (FileInfo, error)
	// List returns the real-file paths visible to this FS, sorted.
	List(ctx context.Context) ([]string, error)
	// CreateDummy creates and disclosed-registers a deniable dummy
	// file of blocks blocks — relocation targets and coercion cover.
	// Constructions without user-visible dummy files (Construction 1,
	// whose free blocks are implicitly the dummy file) return a
	// *PathError wrapping ErrUnsupported.
	CreateDummy(ctx context.Context, path string, blocks uint64) error
	// Disclose opens an existing file — real or dummy; the header
	// says which — and reports what it is. A wrong key and a missing
	// file are the same ErrNotFound, by design.
	Disclose(ctx context.Context, path string) (FileInfo, error)
	// Close ends this principal's view: logout for sessions (the
	// agent forgets everything disclosed), save-and-forget for agent
	// handles, hangup for remote connections.
	Close() error
}

// ReadHandle is an open hidden file, readable at arbitrary offsets.
// ReadAt follows io.ReaderAt: a read short of len(p) returns io.EOF.
type ReadHandle interface {
	io.ReaderAt
	io.Closer
}

// WriteHandle is an open hidden file, writable at arbitrary offsets
// through the construction's update-hiding policy. Writes smaller than
// a run of 64 blocks wait in memory — every handle of the principal
// reads them at once — and reach the volume as one run when 64 blocks
// wait, at Save, and at Close, which then saves the file's block map.
// On a remote FS they, and Truncate, wait in the client and travel to
// the agent with the call that sends them: Save, Close, a read or Stat
// of the path, a write or Truncate behind a staged Truncate, or the
// write that fills the run. That call reports their failure —
// ErrMaybeApplied included — and they stay staged for its repeat, but
// for a Truncate the agent refuses: that error is reported once.
type WriteHandle interface {
	io.WriterAt
	io.Closer
}

// FileInfo describes a hidden file as one FS operation saw it.
type FileInfo struct {
	// Path is the file's hidden pathname.
	Path string
	// Size is the byte size at observation time.
	Size uint64
	// Dummy reports a deniable dummy file (Construction 2 only).
	Dummy bool
}

// ErrUnsupported reports an FS operation the construction behind the
// interface cannot express (e.g. CreateDummy on Construction 1).
var ErrUnsupported = errors.New("steghide: operation not supported by this construction")

// errNegativeOffset rejects negative io.ReaderAt/io.WriterAt offsets.
var errNegativeOffset = errors.New("steghide: negative offset")

// PathError records an error from an FS operation on a path, the way
// io/fs.PathError does for ordinary file systems. Every FS
// implementation returns *PathError from failed operations, wrapping
// the package sentinels (ErrNotFound, ErrVolumeFull, ErrNoDummySpace,
// ErrUnsupported, context errors), so errors.Is works uniformly
// across constructions — including across the wire, where the agent
// protocol round-trips sentinel codes.
type PathError struct {
	// Op is the FS operation that failed ("create", "write", ...).
	Op string
	// Path is the hidden pathname the operation targeted.
	Path string
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *PathError) Error() string {
	if e.Path == "" {
		return "steghide: " + e.Op + ": " + e.Err.Error()
	}
	return "steghide: " + e.Op + " " + e.Path + ": " + e.Err.Error()
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PathError) Unwrap() error { return e.Err }

// pathErr wraps err as a *PathError unless it is nil or already one.
func pathErr(op, path string, err error) error {
	if err == nil {
		return nil
	}
	var pe *PathError
	if errors.As(err, &pe) {
		return err
	}
	return &PathError{Op: op, Path: path, Err: err}
}

// readFileChunk is how many bytes ReadFile asks for at a time, into one
// lease: only bytes received accumulate, so a hostile agent cannot make
// the caller allocate more than it sent. Each ReadFile in flight holds
// a chunk; 512 KiB reads a 256 KiB file at once, and 1 MiB cost 3.5 %
// more peak RSS on the benchmark's wire-files workload.
const readFileChunk = 512 << 10

// ReadFile reads the whole of path through fsys: chunked reads from
// offset 0 until a short one. It asks for no size first: a handle
// reports io.EOF on every short read, so a file under a chunk is one
// read, and over a remote FS one round trip.
func ReadFile(ctx context.Context, fsys FS, path string) ([]byte, error) {
	h, err := fsys.OpenRead(ctx, path)
	if err != nil {
		return nil, err
	}
	defer h.Close() //nolint:errcheck // read handles flush nothing
	chunk := mempool.Get(readFileChunk)
	defer mempool.Recycle(chunk)
	var out []byte
	for {
		n, err := h.ReadAt(chunk, int64(len(out)))
		out = append(out, chunk[:n]...)
		if n < len(chunk) || err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return out, err
		}
	}
}

// WriteFile replaces path's content with data through fsys, creating
// the file if it does not exist, truncating any longer previous
// content, and saving it. The writes flow through the construction's
// update-hiding policy like any other.
func WriteFile(ctx context.Context, fsys FS, path string, data []byte) error {
	h, err := fsys.OpenWrite(ctx, path)
	if err != nil {
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		if err := fsys.Create(ctx, path); err != nil {
			return err
		}
		if h, err = fsys.OpenWrite(ctx, path); err != nil {
			return err
		}
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		h.Close() //nolint:errcheck // the write error wins
		return err
	}
	// Replace semantics: a shorter rewrite must not leave the old tail.
	if err := fsys.Truncate(ctx, path, uint64(len(data))); err != nil {
		h.Close() //nolint:errcheck // the truncate error wins
		return err
	}
	return h.Close()
}
