// Package workload generates the file content and update streams of
// the paper's evaluation (Table 2): single-block and ranged updates at
// random positions of a file, over content any copy can re-derive.
//
// Everything is driven by the deterministic PRNG so experiments are
// reproducible; scale factors shrink the absolute sizes without
// changing any ratio the paper's claims depend on.
package workload

import (
	"fmt"

	"steghide/internal/prng"
)

// FileSpec describes one generated file.
type FileSpec struct {
	Name   string
	Blocks uint64
}

// Content produces deterministic pseudo-random file content of n
// bytes for a given name, so any copy can be re-derived for
// verification.
func Content(name string, n int) []byte {
	return prng.New([]byte("workload-content\x00" + name)).Bytes(n)
}

// UpdateOp is one update request: `Blocks` consecutive blocks starting
// at logical block Off of file Name.
type UpdateOp struct {
	Name   string
	Off    uint64
	Blocks int
}

// Updates generates count update ops of fixed range over the given
// files, at uniformly random positions.
func Updates(rng *prng.PRNG, files []FileSpec, count, rangeBlocks int) ([]UpdateOp, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("workload: no files")
	}
	if rangeBlocks < 1 {
		return nil, fmt.Errorf("workload: update range %d", rangeBlocks)
	}
	ops := make([]UpdateOp, 0, count)
	for i := 0; i < count; i++ {
		f := files[rng.Intn(len(files))]
		if f.Blocks < uint64(rangeBlocks) {
			return nil, fmt.Errorf("workload: file %s smaller than update range", f.Name)
		}
		off := rng.Uint64n(f.Blocks - uint64(rangeBlocks) + 1)
		ops = append(ops, UpdateOp{Name: f.Name, Off: off, Blocks: rangeBlocks})
	}
	return ops, nil
}
