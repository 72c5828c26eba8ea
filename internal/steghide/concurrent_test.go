package steghide

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// TestConcurrentSessionsC2 drives N sessions of real updates against
// the daemon's dummy traffic on Construction 2 and checks the paper's
// invariants under contention: every session's content intact, the
// update counters exact, and the measured overhead still ≈ N/D.
// Run with -race: the scheduler's interleaving safety is the point.
func TestConcurrentSessionsC2(t *testing.T) {
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
		s, err := a.LoginWithPassphrase(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
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
		if err := s.Write(path, content, 0); err != nil {
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

	d := NewDaemon(a, time.Millisecond).WithBurst(8).WithAdaptive(false)
	d.Start()
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
				if err := c.sess.Write(c.path, chunk, uint64(li*ps)); err != nil {
					errCh <- err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	// The writers may outrun the first tick; keep the daemon running
	// until it has demonstrably shared the stream with them.
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
		t.Fatal("daemon never issued against the shared scheduler")
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
		if err := a.Logout(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := a.LoginWithPassphrase("u0", "pw-0")
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
// their own files between writes, against each other, the daemon and a
// journal whose save hook hands limbo blocks to other sessions' dummy
// files, must leave every file intact, in memory and — each save being
// the durability point — across a logout. Run with -race.
func TestSaveAndReopenOnDataPlane(t *testing.T) {
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
		s, err := a.LoginWithPassphrase(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
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
		if err := s.Write("/f", contents[i], 0); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	d := NewDaemon(a, time.Millisecond).WithBurst(8).WithAdaptive(false)
	d.Start()
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
				if err := s.Write("/f", chunk, uint64(li*ps)); err != nil {
					t.Error(err)
					return
				}
				if k%4 == 3 {
					if err := s.Save("/f"); err != nil {
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
		if err := a.Logout(s.User()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sessions {
		s, err := a.LoginWithPassphrase(fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i))
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
// updating distinct files against daemon bursts on one agent, with the
// measured overhead still ≈ N/D at 50% utilization.
func TestConcurrentWritersC1(t *testing.T) {
	a, _ := newC1(t, 2050)
	const workers = 6
	const updates = 40
	ps := a.Vol().PayloadSize()

	contents := make([][]byte, workers)
	for i := range contents {
		path := fmt.Sprintf("/w%d", i)
		if _, err := a.Create("user", path); err != nil {
			t.Fatal(err)
		}
		contents[i] = prng.NewFromUint64(uint64(70 + i)).Bytes(8 * ps)
		if err := a.Write(path, contents[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	target := (a.Vol().NumBlocks() - 1) / 2
	for a.Source().UsedCount() < target {
		if _, err := a.Source().AcquireRandom(); err != nil {
			t.Fatal(err)
		}
	}
	n := a.Vol().NumBlocks() - 1
	d := n - a.Source().UsedCount()
	wantE := float64(n) / float64(d)
	a.ResetStats()

	daemon := NewDaemon(a, time.Millisecond).WithBurst(8).WithAdaptive(false)
	daemon.Start()
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
				if err := a.Write(path, chunk, uint64(li*ps)); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for daemon.Issued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	daemon.Stop()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := a.Stats()
	if st.DataUpdates != workers*updates {
		t.Fatalf("data updates %d != %d", st.DataUpdates, workers*updates)
	}
	if st.DummyUpdates == 0 {
		t.Fatal("daemon never issued against the shared scheduler")
	}
	gotE := st.ExpectedOverhead()
	if gotE < wantE*0.7 || gotE > wantE*1.3 {
		t.Fatalf("measured E=%.3f, analytic N/D=%.3f under contention", gotE, wantE)
	}
	for i := 0; i < workers; i++ {
		got := make([]byte, len(contents[i]))
		if _, err := a.Read(fmt.Sprintf("/w%d", i), got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[i]) {
			t.Fatalf("file %d corrupted by concurrent updates", i)
		}
	}
}
