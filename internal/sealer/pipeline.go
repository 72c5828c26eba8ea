package sealer

import (
	"runtime"
	"sync"
	"sync/atomic"

	"steghide/internal/aeskern"
	"steghide/internal/obs"
)

// Pipeline fans the batched seal operations out over a bounded pool of
// workers, one batch at a time. It exists because the update path of
// the constructions is pure CPU — one AES-CBC pass per block — and the
// serial SealMany/OpenMany/ResealMany loops cap a session at one core.
//
// Bit-identity contract: every Pipeline method produces byte-for-byte
// the output of its serial Sealer counterpart, and consumes the
// caller's IV source in exactly the serial order. IVs are drawn
// through nextIV serially, in index order, *before* any worker runs —
// parallelism never reorders the RNG stream — and each block's
// transform depends only on its own buffers, so the scatter across
// workers is invisible in the result. That is what lets the scheduler
// flip the pipeline on and off without moving a single observable
// byte (the regression oracle of Definition 1).
//
// Error semantics differ from the serial methods in one way: a serial
// loop stops at the first bad block, leaving a well-defined prefix
// transformed, while a parallel batch may have transformed an
// arbitrary subset when it reports the error. All length validation
// happens up front (no buffer is touched on a malformed batch), so in
// practice the divergence is unreachable for well-formed batches.
//
// A Pipeline is stateless (a worker count) and safe for concurrent use
// by any number of batches; workers are spawned per batch, bounded by
// the pool size, so an idle Pipeline costs nothing.
type Pipeline struct {
	workers int

	// Observability hooks, nil until Instrument: batch/block
	// throughput counters and an in-flight gauge. They record batch
	// sizes and counts only — never which blocks a batch touched.
	batches  *obs.Counter
	blocks   *obs.Counter
	inflight *obs.Gauge
}

// Instrument attaches throughput counters and an in-flight gauge,
// updated by Each (the primitive every batch method routes through).
// Install before concurrent use; nil hooks stay silent.
func (p *Pipeline) Instrument(batches, blocks *obs.Counter, inflight *obs.Gauge) {
	p.batches = batches
	p.blocks = blocks
	p.inflight = inflight
}

// NewPipeline returns a pipeline of the given width; workers <= 0
// selects GOMAXPROCS. Width 1 degenerates to the serial loops (used by
// the GOMAXPROCS=1 CI lane to pin that the parallel and serial paths
// are the same code shape).
func NewPipeline(workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{workers: workers}
}

// Workers returns the pool width.
func (p *Pipeline) Workers() int { return p.workers }

// Each runs fn(i) for every i in [0, n) across the pipeline's workers
// and returns the first error. It is the primitive the batch methods
// are built on. fn must be safe to call from multiple goroutines on
// distinct indices; after an error the remaining indices may or may
// not run.
func (p *Pipeline) Each(n int, fn func(i int) error) error {
	return p.each(n, n, fn)
}

// eachGroup hands the workers whole lane groups of a blocks-long
// batch: fn(lo, hi) gets [lo, hi) of at most MaxLanes blocks, which
// one kernel call then moves through the cipher together. Per-block
// fan-out would leave each worker a one-lane chain.
func (p *Pipeline) eachGroup(blocks int, fn func(lo, hi int) error) error {
	const g = aeskern.MaxLanes
	return p.each((blocks+g-1)/g, blocks, func(i int) error {
		return fn(i*g, min((i+1)*g, blocks))
	})
}

// each is Each with the batch's block count given apart from its task
// count, for the metrics.
func (p *Pipeline) each(n, blocks int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if p.batches != nil {
		p.batches.Inc()
		p.blocks.Add(uint64(blocks))
		p.inflight.Add(int64(blocks))
		defer p.inflight.Add(int64(-blocks))
	}
	workers := min(p.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		first   error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { first = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// SealMany is Sealer.SealMany across the pool: IVs are drawn serially
// in index order — the whole trick that keeps parallel sealing
// bit-identical to the serial loops: the RNG stream is drained exactly
// as the serial code would drain it, before any worker touches a block
// — then each lane group seals on whichever worker picks it up.
func (p *Pipeline) SealMany(s *Sealer, dsts [][]byte, nextIV func(iv []byte), datas [][]byte) error {
	if err := s.checkSealBatch(dsts, datas); err != nil {
		return err
	}
	drawIVs(dsts, nextIV)
	return p.eachGroup(len(dsts), func(lo, hi int) error {
		return s.sealDrawn(dsts[lo:hi], datas[lo:hi])
	})
}

// OpenMany is Sealer.OpenMany across the pool.
func (p *Pipeline) OpenMany(s *Sealer, dsts, raws [][]byte) error {
	if err := s.checkOpenBatch(dsts, raws); err != nil {
		return err
	}
	return p.eachGroup(len(dsts), func(lo, hi int) error {
		return s.OpenMany(dsts[lo:hi], raws[lo:hi])
	})
}

// ResealLanes is the package's ResealLanes across the pool; the IVs
// arrive already drawn, so workers reorder nothing.
func (p *Pipeline) ResealLanes(seals []*Sealer, raws [][]byte, ivs []byte) error {
	if err := checkResealLanes(seals, raws, ivs); err != nil {
		return err
	}
	return p.eachGroup(len(raws), func(lo, hi int) error {
		return resealDrawn(func(i int) *Sealer { return seals[lo+i] }, raws[lo:hi], ivs[lo*IVSize:hi*IVSize])
	})
}
