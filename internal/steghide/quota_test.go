package steghide

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// usage returns how many blocks are registered to the login.
func usage(a *VolatileAgent, user string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usedLocked(user)
}

// quota returns the logins' block budget (0 = unlimited).
func quota(a *VolatileAgent) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.defaultQuota
}

func TestQuotaBlocksCreateDummy(t *testing.T) {
	a, _ := newC2(t, 2048)
	a.SetDefaultQuota(50)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// 100 blocks + header over a 50-block budget.
	if _, err := s.CreateDummy("/dummy0", 100); !errors.Is(err, stegfs.ErrVolumeFull) {
		t.Fatalf("over-budget dummy: %v", err)
	}
	if usage(a, "alice") != 0 {
		t.Fatalf("failed create charged %d blocks", usage(a, "alice"))
	}
	if _, err := s.CreateDummy("/dummy0", 40); err != nil {
		t.Fatal(err)
	}
	if u := usage(a, "alice"); u < 41 {
		t.Fatalf("usage %d after 40-block dummy + header", u)
	}
}

func TestQuotaBlocksGrowth(t *testing.T) {
	ctx := context.Background()
	a, _ := newC2(t, 2048)
	a.SetDefaultQuota(60)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/dummy0", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/real"); err != nil {
		t.Fatal(err)
	}
	// Each payload block converts a dummy block (net-zero) but Save's
	// pointer blocks and the growth beyond the budget must be refused.
	big := prng.NewFromUint64(1).Bytes(30 * a.Vol().PayloadSize())
	err = s.Write(ctx, "/real", big, 0)
	if err == nil {
		// Conversion is net-zero until pointer blocks push past the
		// budget; force more growth until the gate fires.
		for i := 0; i < 10 && err == nil; i++ {
			err = s.Truncate(ctx, "/real", uint64(40+i*10)*uint64(a.Vol().PayloadSize()))
		}
	}
	if err != nil && !errors.Is(err, stegfs.ErrVolumeFull) && !errors.Is(err, ErrNoDummySpace) {
		t.Fatalf("growth failure has wrong type: %v", err)
	}
	if q := quota(a); q != 60 {
		t.Fatalf("quota = %d", q)
	}
	if u := usage(a, "alice"); u > 70 {
		t.Fatalf("usage %d blew far past the 60-block budget", u)
	}
}

func TestQuotaDoesNotBlockReopen(t *testing.T) {
	ctx := context.Background()
	// A quota below a file's existing footprint must not stop the user
	// from disclosing it again: reopening re-claims blocks the login
	// already owns, it does not allocate.
	a, _ := newC2(t, 2048)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/dummy0", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/real"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(2).Bytes(10 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/real", msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}

	a.SetDefaultQuota(5) // far below the existing footprint
	s2, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Disclose("/dummy0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Disclose("/real"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s2.Read("/real", got, 0); err != nil {
		t.Fatal(err)
	}
	// But new allocation is refused.
	if _, err := s2.Create("/more"); !errors.Is(err, stegfs.ErrVolumeFull) {
		t.Fatalf("create under exhausted budget: %v", err)
	}
}

func TestQuotaRelocationNetZero(t *testing.T) {
	ctx := context.Background()
	// Dummy traffic and Figure-6 relocation swap block roles; they must
	// not leak usage in either direction.
	a, _ := newC2(t, 2048)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/dummy0", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/real"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(3).Bytes(8 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/real", msg, 0); err != nil {
		t.Fatal(err)
	}
	before := usage(a, "alice")
	for i := 0; i < 5; i++ {
		if err := s.Write(ctx, "/real", msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.DummyUpdateBurst(20); err != nil {
			t.Fatal(err)
		}
	}
	if after := usage(a, "alice"); after != before {
		t.Fatalf("usage drifted %d -> %d across rewrites and dummy traffic", before, after)
	}
}

func TestQuotaAllowsSaveAndLogoutAtBudget(t *testing.T) {
	ctx := context.Background()
	// A save draws a fresh block for each pointer block it writes and
	// releases the old ones after its header: at its budget a login must
	// still save a file with pointer blocks and log out, its cover's
	// save included, while another login's cover is in the draw pool.
	a, _ := newC2(t, 2048)
	bob, err := a.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateDummy("/cover", 100); err != nil {
		t.Fatal(err)
	}
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	cover, err := s.CreateDummy("/cover", 100)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("/real")
	if err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(5).Bytes(30 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/real", msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(ctx, "/real"); err != nil {
		t.Fatal(err)
	}
	if len(f.IndirectLocs()) == 0 || len(cover.IndirectLocs()) == 0 {
		t.Fatal("the file and the cover need pointer blocks")
	}
	budget := usage(a, "alice")
	a.SetDefaultQuota(budget)
	for round := range 3 {
		if err := s.Write(ctx, "/real", msg[:a.Vol().PayloadSize()], 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(ctx, "/real"); err != nil {
			t.Fatalf("round %d: save at the budget: %v", round, err)
		}
		if u := usage(a, "alice"); u > budget {
			t.Fatalf("round %d: usage %d past the %d-block budget", round, u, budget)
		}
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatalf("logout at the budget: %v", err)
	}
	if err := a.Logout(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	s, err = a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Disclose("/cover"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Disclose("/real"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s.Read("/real", got, 0); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("the file reads back wrong after saves at the budget (err=%v)", err)
	}
	report, err := stegfs.Check(a.Vol(), map[string][]string{"pw": {"/cover", "/real"}})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("fsck after saves at the budget: %v", report)
	}
}

// TestQuotaForgetsALoginAtZero: a login whose block count reaches zero
// leaves the agent's books, and its number goes to the next login.
func TestQuotaForgetsALoginAtZero(t *testing.T) {
	ctx := context.Background()
	a, _ := newC2(t, 2048)
	s, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/dummy0", 20); err != nil {
		t.Fatal(err)
	}
	if u := usage(a, "alice"); u < 21 {
		t.Fatalf("usage %d after a 20-block dummy + header", u)
	}
	if err := a.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	n, known := len(a.logins), a.logins["alice"] != 0
	a.mu.Unlock()
	if known || n != 0 || usage(a, "alice") != 0 {
		t.Fatalf("after logout the agent still books %d logins (alice %v, %d blocks)", n, known, usage(a, "alice"))
	}
	s, err = a.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/dummy0", 10); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	num, books := a.logins["bob"], len(a.usage)
	a.mu.Unlock()
	if num != 1 || books != 1 {
		t.Fatalf("bob has login number %d of %d, want alice's freed number 1 of 1", num, books)
	}
}
