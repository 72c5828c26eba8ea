package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"steghide"
)

// opKind names one workload operation.
type opKind uint8

const (
	opWriteFile   opKind = iota // whole-file replace, 256 KiB
	opReadFile                  // whole-file read, verified
	opUpdateBurst               // OpenWrite + 16 single-block WriteAt + Close
	opReadBlock                 // single-block ReadAt, verified
	opWriteBlock                // single-block WriteAt
	opCoverBurst                // Agent2().DummyUpdateBurst(64)
	numOpKinds
)

var opKindNames = [numOpKinds]string{"write_file", "read_file", "update_burst", "read_block", "write_block", "cover_burst"}

const (
	fileBytes      = 256 << 10 // file-workload file size
	filesPerLogin  = 16
	updatesPerOp   = 16 // single-block writes in one update-burst
	obliFiles      = 8
	obliFileBlocks = 64
	coverBurst     = 64
	poolBuffers    = 8 // distinct pre-generated contents
)

// opResult is what one executed operation reports to the runner.
type opResult struct {
	kind       opKind
	ns         int64 // time inside the system under test
	userRead   int   // payload bytes read
	userWrites int   // payload bytes written
	ok         bool
}

// client is one closed-loop user: a seeded op stream over its own
// files, and the shadow model (path -> bytes) every read is checked
// against. All content is generated up front; the system under test
// sees paths and bytes, never the seed.
type client struct {
	fs      steghide.FS
	rng     *rand.Rand
	tr      *tracer
	paths   []string
	shadow  [][]byte // shadow[i] mirrors paths[i]
	pool    [][]byte // pre-generated contents, fileBytes each
	payload int      // bytes per single-block write

	// oblivious-reads keeps one handle pair per file open for the run.
	readers []steghide.ReadHandle
	writers []steghide.WriteHandle
	buf     []byte

	// cover-burst drives the agent directly.
	agent *steghide.VolatileAgent

	// scratch for one update-burst, picked before the clock starts.
	blocks  [updatesPerOp]int
	offsets [updatesPerOp]int
}

// newClient generates the content pool and the initial file contents
// for one login. user and seed select the stream; size is the byte
// size of every file.
func newClient(seed int64, user, files, size, payload int, tr *tracer) *client {
	c := &client{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(user))),
		tr:      tr,
		payload: payload,
		buf:     make([]byte, payload),
	}
	for i := 0; i < poolBuffers; i++ {
		b := make([]byte, size)
		c.rng.Read(b)
		c.pool = append(c.pool, b)
	}
	for i := 0; i < files; i++ {
		c.paths = append(c.paths, fmt.Sprintf("/u%d/file-%02d", user, i))
		c.shadow = append(c.shadow, bytes.Clone(c.pool[c.rng.Intn(poolBuffers)]))
	}
	return c
}

// populate writes every file's initial content through fsys.
func (c *client) populate(ctx context.Context, fsys steghide.FS) error {
	for i, p := range c.paths {
		if err := steghide.WriteFile(ctx, fsys, p, c.shadow[i]); err != nil {
			return err
		}
	}
	return nil
}

// fileOp runs one operation of the file mix: 30% WriteFile, 40%
// ReadFile, 30% update-burst.
func (c *client) fileOp(ctx context.Context) opResult {
	i := c.rng.Intn(len(c.paths))
	switch r := c.rng.Intn(10); {
	case r < 3:
		content := c.pool[c.rng.Intn(poolBuffers)]
		done := c.tr.beginOp(opWriteFile)
		start := time.Now()
		err := steghide.WriteFile(ctx, c.fs, c.paths[i], content)
		ns := int64(time.Since(start))
		done()
		copy(c.shadow[i], content)
		return opResult{opWriteFile, ns, 0, len(content), err == nil}
	case r < 7:
		done := c.tr.beginOp(opReadFile)
		start := time.Now()
		got, err := steghide.ReadFile(ctx, c.fs, c.paths[i])
		ns := int64(time.Since(start))
		done()
		return opResult{opReadFile, ns, len(got), 0, err == nil && bytes.Equal(got, c.shadow[i])}
	default:
		src := c.pool[c.rng.Intn(poolBuffers)]
		for k := range c.blocks {
			c.blocks[k] = c.rng.Intn(len(c.shadow[i]) / c.payload)
			c.offsets[k] = c.rng.Intn(len(src) - c.payload)
		}
		done := c.tr.beginOp(opUpdateBurst)
		start := time.Now()
		err := c.updateBurst(ctx, c.paths[i], src)
		ns := int64(time.Since(start))
		done()
		for k, b := range c.blocks {
			copy(c.shadow[i][b*c.payload:], src[c.offsets[k]:c.offsets[k]+c.payload])
		}
		return opResult{opUpdateBurst, ns, 0, updatesPerOp * c.payload, err == nil}
	}
}

func (c *client) updateBurst(ctx context.Context, path string, src []byte) error {
	h, err := c.fs.OpenWrite(ctx, path)
	if err != nil {
		return err
	}
	for k, b := range c.blocks {
		if _, err := h.WriteAt(src[c.offsets[k]:c.offsets[k]+c.payload], int64(b*c.payload)); err != nil {
			h.Close() //nolint:errcheck // the write error wins
			return err
		}
	}
	return h.Close()
}

// blockOp runs one operation of the oblivious mix: 90% single-block
// ReadAt, 10% single-block WriteAt, uniform over (file, block).
func (c *client) blockOp(context.Context) opResult {
	i := c.rng.Intn(len(c.paths))
	off := c.rng.Intn(len(c.shadow[i])/c.payload) * c.payload
	if c.rng.Intn(10) > 0 {
		done := c.tr.beginOp(opReadBlock)
		start := time.Now()
		n, err := c.readers[i].ReadAt(c.buf, int64(off))
		ns := int64(time.Since(start))
		done()
		return opResult{opReadBlock, ns, n, 0, err == nil && bytes.Equal(c.buf, c.shadow[i][off:off+c.payload])}
	}
	src := c.pool[c.rng.Intn(poolBuffers)]
	chunk := src[c.rng.Intn(len(src)-c.payload):][:c.payload]
	done := c.tr.beginOp(opWriteBlock)
	start := time.Now()
	_, err := c.writers[i].WriteAt(chunk, int64(off))
	ns := int64(time.Since(start))
	done()
	copy(c.shadow[i][off:], chunk)
	return opResult{opWriteBlock, ns, 0, c.payload, err == nil}
}

// burstOp runs one cover burst. Its "payload" is the cover it
// refreshed: coverBurst blocks read, resealed and written back.
func (c *client) burstOp(context.Context) opResult {
	done := c.tr.beginOp(opCoverBurst)
	end := c.tr.call(callBurst)
	start := time.Now()
	n, err := c.agent.DummyUpdateBurst(coverBurst)
	ns := int64(time.Since(start))
	end()
	done()
	bs := c.agent.Vol().BlockSize()
	return opResult{opCoverBurst, ns, n * bs, n * bs, err == nil && n == coverBurst}
}

// verifyAll reads every file back through fsys and reports how many
// differ from the shadow model.
func (c *client) verifyAll(ctx context.Context, fsys steghide.FS) int {
	bad := 0
	for i, p := range c.paths {
		got, err := steghide.ReadFile(ctx, fsys, p)
		if err != nil || !bytes.Equal(got, c.shadow[i]) {
			bad++
		}
	}
	return bad
}
