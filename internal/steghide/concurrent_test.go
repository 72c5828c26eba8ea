package steghide

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// bursts issues a burst of dummy updates every millisecond, whether or
// not real traffic flowed, until Stop: unlike the adaptive daemon it
// keeps dummy bursts interleaved with the writers it runs beside.
type bursts struct {
	issued     atomic.Uint64
	stop, done chan struct{}
}

// startBursts starts issuing src.DummyUpdateBurst(n) every
// millisecond. Errors are not fatal: a burst that finds only
// mid-operation blocks is normal under contention.
func startBursts(src DummySource, n int) *bursts {
	b := &bursts{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-ticker.C:
				k, _ := src.DummyUpdateBurst(n)
				b.issued.Add(uint64(k))
			}
		}
	}()
	return b
}

// Issued returns how many dummy updates went out so far.
func (b *bursts) Issued() uint64 { return b.issued.Load() }

// Stop halts the bursts and waits for the last one to finish.
func (b *bursts) Stop() {
	close(b.stop)
	<-b.done
}

// TestConcurrentSessionsC2 drives N sessions of real updates against
// dummy bursts on Construction 2 and checks the paper's invariants
// under contention: every session's content intact, the update
// counters exact, and the measured overhead still ≈ N/D.
// Run with -race: the scheduler's interleaving safety is the point.
func TestConcurrentSessionsC2(t *testing.T) {
	ctx := context.Background()
	a, _ := newC2(t, 4096)
	const nSessions = 6
	const updates = 40

	type client struct {
		sess    *Session
		path    string
		content []byte
	}
	ps := a.Vol().PayloadSize()
	clients := make([]*client, nSessions)
	for i := range clients {
		s, err := a.Login(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateDummy("/d", 120); err != nil {
			t.Fatal(err)
		}
		path := "/f"
		if _, err := s.Create(path); err != nil {
			t.Fatal(err)
		}
		content := prng.NewFromUint64(uint64(50 + i)).Bytes(10 * ps)
		if err := s.Write(ctx, path, content, 0); err != nil {
			t.Fatal(err)
		}
		clients[i] = &client{sess: s, path: path, content: content}
	}

	// Steady state: all files at final size, so the disclosed-block
	// and dummy counts only move by count-preserving relocations.
	nKnown := float64(a.KnownBlocks())
	nDummy := float64(a.DummyBlocks())
	wantE := nKnown / nDummy
	a.ResetStats()

	d := startBursts(a, 8)
	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(200 + i))
			for k := 0; k < updates; k++ {
				li := rng.Intn(10)
				chunk := rng.Bytes(ps)
				copy(c.content[li*ps:], chunk)
				if err := c.sess.Write(ctx, c.path, chunk, uint64(li*ps)); err != nil {
					errCh <- err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	// The writers may outrun the first burst; keep the bursts running
	// until they have demonstrably shared the stream with the writers.
	deadline := time.Now().Add(2 * time.Second)
	for d.Issued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := a.Stats()
	if st.DataUpdates != nSessions*updates {
		t.Fatalf("data updates %d != %d", st.DataUpdates, nSessions*updates)
	}
	if st.DummyUpdates == 0 {
		t.Fatal("dummy bursts never issued against the shared scheduler")
	}
	gotE := st.ExpectedOverhead()
	if gotE < wantE*0.6 || gotE > wantE*1.4 {
		t.Fatalf("measured E=%.3f, analytic N/D=%.3f under contention", gotE, wantE)
	}

	// Content of every session must survive the interleaved stream.
	for i, c := range clients {
		got := make([]byte, len(c.content))
		if _, err := c.sess.Read(c.path, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.content) {
			t.Fatalf("session %d content corrupted under concurrency", i)
		}
	}
	// And across a logout/login cycle (maps flushed consistently).
	for i := range clients {
		if err := a.Logout(ctx, fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := a.Login("u0", "pw-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Disclose("/f"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(clients[0].content))
	if _, err := s2.Read("/f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clients[0].content) {
		t.Fatal("content lost across post-contention logout")
	}
}

// TestSaveAndReopenOnDataPlane: closing a write handle saves the file
// and every open discloses it again, so both sit on each login's data
// path. They run under the shared lock: sessions that save and reopen
// their own files between writes, against each other, dummy bursts and a
// journal whose save hook hands limbo blocks to other sessions' dummy
// files, must leave every file intact, in memory and — each save being
// the durability point — across a logout. Run with -race.
func TestSaveAndReopenOnDataPlane(t *testing.T) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(256, 4096), stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("sh-save"), JournalBlocks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewVolatile(vol, prng.NewFromUint64(23))
	if err := a.EnableJournal(JournalKey(vol, "admin")); err != nil {
		t.Fatal(err)
	}
	const nSessions, updates = 4, 48
	ps := vol.PayloadSize()
	contents := make([][]byte, nSessions)
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := a.Login(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateDummy("/d", 200); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Create("/f"); err != nil {
			t.Fatal(err)
		}
		contents[i] = prng.NewFromUint64(uint64(70 + i)).Bytes(10 * ps)
		if err := s.Write(ctx, "/f", contents[i], 0); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	d := startBursts(a, 8)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(300 + i))
			for k := 0; k < updates; k++ {
				li := rng.Intn(10)
				chunk := rng.Bytes(ps)
				copy(contents[i][li*ps:], chunk)
				if err := s.Write(ctx, "/f", chunk, uint64(li*ps)); err != nil {
					t.Error(err)
					return
				}
				if k%4 == 3 {
					if err := s.Save(ctx, "/f"); err != nil {
						t.Error(err)
						return
					}
					if f, err := s.Disclose("/f"); err != nil || f.IsDummy() {
						t.Errorf("reopening a held file: %v", err)
						return
					}
				}
			}
		}(i, s)
	}
	wg.Wait()
	d.Stop()
	for i, s := range sessions {
		got := make([]byte, len(contents[i]))
		if _, err := s.Read("/f", got, 0); err != nil || !bytes.Equal(got, contents[i]) {
			t.Fatalf("session %d content after concurrent saves: %v", i, err)
		}
		if err := a.Logout(ctx, s.User()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sessions {
		s, err := a.Login(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Disclose("/f"); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(contents[i]))
		if _, err := s.Read("/f", got, 0); err != nil || !bytes.Equal(got, contents[i]) {
			t.Fatalf("session %d content lost across logout: %v", i, err)
		}
	}
}

// TestConcurrentWritersC1 is the Construction 1 version: N goroutines
// updating distinct files against dummy bursts on one agent, with the
// measured overhead still ≈ N/D at 50% utilization.
func TestConcurrentWritersC1(t *testing.T) {
	ctx := context.Background()
	a, _ := newC1(t, 2050)
	const workers = 6
	const updates = 40
	ps := a.Vol().PayloadSize()

	contents := make([][]byte, workers)
	files := make([]*stegfs.File, workers)
	for i := range contents {
		path := fmt.Sprintf("/w%d", i)
		f, err := a.Create("user", path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
		contents[i] = prng.NewFromUint64(uint64(70 + i)).Bytes(8 * ps)
		if err := a.Write(ctx, path, f, contents[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	target := (a.Vol().NumBlocks() - 1) / 2
	for usedBlocks(a) < target {
		if _, err := a.Source().AcquireRandom(); err != nil {
			t.Fatal(err)
		}
	}
	n := a.Vol().NumBlocks() - 1
	d := n - usedBlocks(a)
	wantE := float64(n) / float64(d)
	a.ResetStats()

	cover := startBursts(a, 8)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", i)
			rng := prng.NewFromUint64(uint64(300 + i))
			for k := 0; k < updates; k++ {
				li := rng.Intn(8)
				chunk := rng.Bytes(ps)
				copy(contents[i][li*ps:], chunk)
				if err := a.Write(ctx, path, files[i], chunk, uint64(li*ps)); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for cover.Issued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cover.Stop()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := a.Stats()
	if st.DataUpdates != workers*updates {
		t.Fatalf("data updates %d != %d", st.DataUpdates, workers*updates)
	}
	if st.DummyUpdates == 0 {
		t.Fatal("dummy bursts never issued against the shared scheduler")
	}
	gotE := st.ExpectedOverhead()
	if gotE < wantE*0.7 || gotE > wantE*1.3 {
		t.Fatalf("measured E=%.3f, analytic N/D=%.3f under contention", gotE, wantE)
	}
	for i := 0; i < workers; i++ {
		got := make([]byte, len(contents[i]))
		if _, err := a.Read(fmt.Sprintf("/w%d", i), files[i], got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[i]) {
			t.Fatalf("file %d corrupted by concurrent updates", i)
		}
	}
}
