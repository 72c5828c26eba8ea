package microbench

import (
	"fmt"
	"sync"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
	"steghide/internal/wire"
)

// Concurrent-clients benchmark: aggregate Figure-6 update throughput
// as the session count grows, on the Mem device directly and through
// the TCP agent protocol. Before the scheduler (PR 2) every session
// serialized on one agent-wide mutex, so 16 sessions ran at 1-session
// speed; with the per-volume scheduler their crypto and device I/O
// overlap. One op = one single-block Figure-6 data update, so ns/op
// is inverse aggregate throughput.

const (
	ccBlockSize   = 1024
	ccDummyBlocks = 96 // dummy cover per session
	ccFileBlocks  = 8  // written blocks per session's file
)

// ccAgent formats a volume sized for n sessions and logs each one in
// with cover and a populated file.
func ccAgent(b *testing.B, n int) (*stegfs.Volume, []*steghide.Session) {
	b.Helper()
	blocks := uint64(n*(ccDummyBlocks+ccFileBlocks+16) + 128)
	vol, err := stegfs.Format(blockdev.NewMem(ccBlockSize, blocks),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("cc")})
	if err != nil {
		b.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(7))
	sessions := make([]*steghide.Session, n)
	data := make([]byte, ccFileBlocks*vol.PayloadSize())
	for i := range sessions {
		s, err := agent.LoginWithPassphrase(fmt.Sprintf("u%02d", i), fmt.Sprintf("pw-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CreateDummy("/d", ccDummyBlocks); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Create("/f"); err != nil {
			b.Fatal(err)
		}
		if err := s.Write("/f", data, 0); err != nil {
			b.Fatal(err)
		}
		sessions[i] = s
	}
	return vol, sessions
}

// share splits b.N updates across n workers.
func share(total, workers, i int) int {
	n := total / workers
	if i < total%workers {
		n++
	}
	return n
}

// concurrentLocal drives n in-process sessions concurrently.
func concurrentLocal(b *testing.B, n int) {
	vol, sessions := ccAgent(b, n)
	ps := vol.PayloadSize()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *steghide.Session) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(1000 + i))
			chunk := make([]byte, ps)
			for k := share(b.N, n, i); k > 0; k-- {
				off := uint64(rng.Intn(ccFileBlocks)) * uint64(ps)
				if err := s.Write("/f", chunk, off); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
}

// concurrentWire drives n sessions through the TCP agent protocol,
// one connection per session.
func concurrentWire(b *testing.B, n int) {
	blocks := uint64(n*(ccDummyBlocks+ccFileBlocks+16) + 128)
	vol, err := stegfs.Format(blockdev.NewMem(ccBlockSize, blocks),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("ccw")})
	if err != nil {
		b.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(8))
	srv, err := wire.NewAgentServer("127.0.0.1:0", agent)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	clients := make([]*wire.Client, n)
	ps := vol.PayloadSize()
	data := make([]byte, ccFileBlocks*ps)
	for i := range clients {
		cli, err := wire.DialAgent(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if err := cli.Login(fmt.Sprintf("u%02d", i), fmt.Sprintf("pw-%d", i)); err != nil {
			b.Fatal(err)
		}
		if err := cli.CreateDummy("/d", ccDummyBlocks); err != nil {
			b.Fatal(err)
		}
		if err := cli.Create("/f"); err != nil {
			b.Fatal(err)
		}
		if err := cli.Write("/f", data, 0); err != nil {
			b.Fatal(err)
		}
		clients[i] = cli
	}
	defer func() {
		for _, cli := range clients {
			cli.Close()
		}
	}()

	b.ResetTimer()
	var wg sync.WaitGroup
	for i, cli := range clients {
		wg.Add(1)
		go func(i int, cli *wire.Client) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(2000 + i))
			chunk := make([]byte, ps)
			for k := share(b.N, n, i); k > 0; k-- {
				off := uint64(rng.Intn(ccFileBlocks)) * uint64(ps)
				if err := cli.Write("/f", chunk, off); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, cli)
	}
	wg.Wait()
}

// ConcurrentClientSuite returns the suite entries for the scaling
// benchmark at the standard session counts.
func ConcurrentClientSuite() []bench {
	var out []bench
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		out = append(out, bench{
			name: fmt.Sprintf("concurrent-clients/local-%d", n),
			fn:   func(b *testing.B) { concurrentLocal(b, n) },
		})
	}
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		out = append(out, bench{
			name: fmt.Sprintf("concurrent-clients/wire-%d", n),
			fn:   func(b *testing.B) { concurrentWire(b, n) },
		})
	}
	return out
}

// Pipelined reads: n sessions, each keeping pipeDepth single-block
// reads in flight on its one connection, all n×depth requests in
// flight at once. One op = one read RTT, so ns/op is inverse aggregate
// wire throughput. Reads are served from the session's open file
// without touching the Figure-6 scheduler, keeping the number
// transport-bound rather than crypto-bound. (The cost of one round
// trip at depth 1 is watched by BenchmarkWireRoundTrip in
// internal/wire.)

const (
	pipeDepth      = 8
	pipeFileBlocks = 8
)

// pipelineWire builds the fixture and drives n connections × pipeDepth
// goroutines of single-block reads.
func pipelineWire(b *testing.B, n int) {
	blocks := uint64(n*(ccDummyBlocks/2+pipeFileBlocks+16) + 128)
	vol, err := stegfs.Format(blockdev.NewMem(ccBlockSize, blocks),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("ccp")})
	if err != nil {
		b.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(9))
	srv, err := wire.NewAgentServer("127.0.0.1:0", agent)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	clients := make([]*wire.Client, n)
	ps := vol.PayloadSize()
	data := make([]byte, pipeFileBlocks*ps)
	for i := range clients {
		cli, err := wire.DialAgent(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if err := cli.Login(fmt.Sprintf("u%02d", i), fmt.Sprintf("pw-%d", i)); err != nil {
			b.Fatal(err)
		}
		if err := cli.CreateDummy("/d", ccDummyBlocks/2); err != nil {
			b.Fatal(err)
		}
		if err := cli.Create("/f"); err != nil {
			b.Fatal(err)
		}
		if err := cli.Write("/f", data, 0); err != nil {
			b.Fatal(err)
		}
		clients[i] = cli
	}
	defer func() {
		for _, cli := range clients {
			cli.Close()
		}
	}()

	workers := n * pipeDepth
	b.SetBytes(int64(ps))
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := clients[w%n]
			rng := prng.NewFromUint64(uint64(3000 + w))
			buf := make([]byte, ps)
			for k := share(b.N, workers, w); k > 0; k-- {
				off := uint64(rng.Intn(pipeFileBlocks)) * uint64(ps)
				if _, err := cli.Read("/f", buf, off); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// PipelineSuite returns the pipelined-read entries at the acceptance
// point (16 sessions × deep pipelines) plus a small size.
func PipelineSuite() []bench {
	var out []bench
	for _, n := range []int{4, 16} {
		n := n
		out = append(out, bench{
			name: fmt.Sprintf("wire-pipeline/pipelined-%d", n),
			fn:   func(b *testing.B) { pipelineWire(b, n) },
		})
	}
	return out
}
