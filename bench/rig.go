package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"steghide"
)

const (
	devBlockSize = 4096
	devBlocks    = 16384 // 64 MiB Mem device
	coverBlocks  = 6144  // dummy cover, split evenly among the logins
	obliBuffer   = 32
	obliLevels   = 6 // last level caches 2^5*32 = 1024 distinct blocks
)

// shape says how a workload's stack is built.
type shape struct {
	oblivious bool // Construction 1 + oblivious cache; else Construction 2 + journal + metrics
	daemon    bool // adaptive cover daemon, 16-block bursts every 250 ms
	logins    int  // sessions, each with its own files and an equal share of the cover
	wire      bool // sessions dial the stack over loopback instead of logging in in-process
	op        func(*client, context.Context) opResult
}

var shapes = map[string]shape{
	wlLocalFiles:     {daemon: true, logins: 1, op: (*client).fileOp},
	wlWireFiles:      {daemon: true, logins: 2, wire: true, op: (*client).fileOp},
	wlObliviousReads: {oblivious: true, logins: 1, op: (*client).blockOp},
	wlCoverBurst:     {logins: 1, op: (*client).burstOp},
}

// rig is one mounted stack with its logged-in clients, built the same
// way for timed and traced runs; a tracer only adds clocks.
type rig struct {
	workload string
	shape    shape
	dev      *countingDev
	stack    *steghide.Stack
	srv      *steghide.AgentServer
	ln       *countingListener
	clients  []*client
}

// buildRig mounts a stack of the given shape on a fresh device, logs
// its clients in and populates their files. tr is nil for timed runs.
// A rig that fails half-built is torn down before the error returns.
func buildRig(ctx context.Context, workload string, sh shape, seed int64, tr *tracer, corrupt bool) (*rig, error) {
	r := &rig{workload: workload, shape: sh}
	if err := r.build(ctx, seed, tr, corrupt); err != nil {
		r.close() //nolint:errcheck // the build error wins
		return nil, err
	}
	return r, nil
}

func (r *rig) build(ctx context.Context, seed int64, tr *tracer, corrupt bool) error {
	sh := r.shape
	r.dev = newCountingDev(steghide.NewMemDevice(devBlockSize, devBlocks), tr)
	if tr != nil {
		tr.dev = r.dev
	}
	opts := []steghide.Option{
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("bench-fill")}),
		// A fixed agent seed: --seed moves the op stream and the file
		// content only, so the timer-free workloads repeat exactly.
		steghide.WithSeed([]byte("bench-agent")),
	}
	if sh.oblivious {
		opts = append(opts, steghide.WithConstruction1([]byte("bench-c1-secret")),
			steghide.WithObliviousCache(obliBuffer, obliLevels))
	} else {
		opts = append(opts, steghide.WithConstruction2(), steghide.WithJournal("bench-journal"),
			steghide.WithMetrics(steghide.NewMetrics()))
	}
	if sh.daemon {
		opts = append(opts, steghide.WithDaemonBurst(250*time.Millisecond, 16))
	}
	stack, err := steghide.Mount(r.dev, opts...)
	if err != nil {
		return err
	}
	r.stack = stack
	if jb := stack.Volume().JournalBlocks(); jb > 0 {
		r.dev.journalEnd.Store(1 + jb)
	}
	payload := stack.Volume().PayloadSize()

	if sh.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		r.ln = &countingListener{Listener: ln, tr: tr}
		if tr != nil {
			tr.ln = r.ln
		}
		if r.srv, err = steghide.ServeListener(r.ln, stack); err != nil {
			ln.Close() //nolint:errcheck // the serve error wins
			return err
		}
	}
	for u := 0; u < sh.logins; u++ {
		user, pass := fmt.Sprintf("user%d", u), fmt.Sprintf("pass%d", u)
		if sh.oblivious {
			c := newClient(seed, u, obliFiles, obliFileBlocks*payload, payload, tr)
			r.clients = append(r.clients, c)
			// Populate through the plain agent FS so the cache starts
			// cold: writes through the oblivious FS would repeat into it.
			plain := steghide.NewAgentFS(stack.Agent1(), pass)
			if err := c.populate(ctx, plain); err != nil {
				return err
			}
			if err := plain.Close(); err != nil {
				return err
			}
			if need, have := obliFiles*obliFileBlocks, stack.ObliviousCache().Store().Capacity(); need > have {
				return fmt.Errorf("oblivious working set %d blocks exceeds cache capacity %d", need, have)
			}
			if c.fs, err = stack.Login(user, pass); err != nil {
				return err
			}
			continue
		}
		c := newClient(seed, u, filesPerLogin, fileBytes, payload, tr)
		r.clients = append(r.clients, c)
		if sh.wire {
			c.fs, err = steghide.DialFS(ctx, r.srv.Addr(), user, pass)
		} else {
			c.fs, err = stack.Login(user, pass)
		}
		if err != nil {
			return err
		}
		if err := c.fs.CreateDummy(ctx, "/cover", uint64(coverBlocks/sh.logins)); err != nil {
			return err
		}
		if err := c.populate(ctx, c.fs); err != nil {
			return err
		}
		c.agent = stack.Agent2()
	}
	if tr != nil {
		for _, c := range r.clients {
			c.fs = &timingFS{FS: c.fs, tr: tr, block: devBlockSize}
		}
	}
	if sh.oblivious {
		// Single-block ops go through handles held open for the run.
		for _, c := range r.clients {
			for _, p := range c.paths {
				rh, err := c.fs.OpenRead(ctx, p)
				if err != nil {
					return err
				}
				c.readers = append(c.readers, rh)
				wh, err := c.fs.OpenWrite(ctx, p)
				if err != nil {
					return err
				}
				c.writers = append(c.writers, wh)
			}
		}
	}
	// Corruption (the negative test) starts once the files are in place.
	r.dev.corrupt.Store(corrupt)
	return nil
}

// close tears the rig down client-first: AgentServer.Close waits on
// live connections, so the FS handles hang up before the server
// drains, and the drain itself runs under a deadline.
func (r *rig) close() error {
	var errs []error
	for _, c := range r.clients {
		for _, h := range c.readers {
			errs = append(errs, h.Close())
		}
		for _, h := range c.writers {
			errs = append(errs, h.Close())
		}
		if c.fs != nil {
			errs = append(errs, c.fs.Close())
		}
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		errs = append(errs, r.srv.Shutdown(ctx))
		cancel()
	}
	if r.stack != nil {
		errs = append(errs, r.stack.Close())
	}
	return errors.Join(errs...)
}
