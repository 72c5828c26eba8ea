// Remote vault: the full system model of §3.2 over TCP — a storage
// server (the shared raw volume, with the attacker's tap on its
// wire), volatile agents mounted on remote devices, and users on the
// unified FS who cannot see each other's files.
//
// One agent daemon serves a *fleet* of volumes (wire protocol v2):
// each stack is mounted under a name and clients pick theirs at
// login, so "personal" and "work" below share one address, one
// process, and nothing else. The transport is multiplexed — every
// FS call pipelines on the connection and cancelling one call leaves
// the rest in flight.
//
//	go run ./examples/remote-vault
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"steghide"
)

// vault is one served volume: its own raw storage (with its own
// attacker tap) behind its own mounted stack.
func vault(seed string) (*steghide.Collector, *steghide.StorageServer, *steghide.Stack, error) {
	tap := &steghide.Collector{}
	raw := steghide.NewMemDevice(512, 4096)
	if _, err := steghide.Format(raw, steghide.FormatOptions{FillSeed: []byte(seed)}); err != nil {
		return nil, nil, nil, err
	}
	srv, err := steghide.NewStorageServer("127.0.0.1:0", raw, tap)
	if err != nil {
		return nil, nil, nil, err
	}
	remote, err := steghide.DialStorage(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	stack, err := steghide.Mount(remote,
		steghide.WithVolumeName(seed),
		steghide.WithSeed([]byte("agent-"+seed)))
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return tap, srv, stack, nil
}

func main() {
	ctx := context.Background()

	// --- two independent raw volumes, one agent daemon -----------------
	personalTap, personalSrv, personal, err := vault("personal")
	if err != nil {
		log.Fatal(err)
	}
	defer personalSrv.Close()
	defer personal.Close() // hangs up the remote device too
	_, workSrv, work, err := vault("work")
	if err != nil {
		log.Fatal(err)
	}
	defer workSrv.Close()
	defer work.Close()

	// A caller-owned listener so the restart below can rebind the same
	// address the clients already hold.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	agentSrv, err := steghide.ServeListener(ln, personal, work)
	if err != nil {
		log.Fatal(err)
	}
	defer agentSrv.Close()
	agentAddr := agentSrv.Addr()
	fmt.Printf("agent server on %s serving volumes %v\n\n", agentAddr, agentSrv.Volumes())

	// --- Alice stores a secret on the personal volume ------------------
	// DialFS returns the same steghide.FS a local login would;
	// WithVolume's name routes the session, and the wire protocol
	// round-trips the error taxonomy, so nothing below cares that the
	// agent is remote.
	alice, err := steghide.DialFS(ctx, agentAddr, "alice", "alice-passphrase", steghide.WithVolume("personal"))
	if err != nil {
		log.Fatal(err)
	}
	must(alice.CreateDummy(ctx, "/alice-cover", 128))
	secret := []byte("wire transfer reference: 7f3a-11c9")
	must(steghide.WriteFile(ctx, alice, "/alice-secret", secret))
	fmt.Printf("alice stored %d bytes on %q\n", len(secret), "personal")

	// --- the volumes are disjoint worlds -------------------------------
	aliceWork, err := steghide.DialFS(ctx, agentAddr, "alice", "alice-passphrase", steghide.WithVolume("work"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := aliceWork.Disclose(ctx, "/alice-secret"); errors.Is(err, steghide.ErrNotFound) {
		fmt.Println("alice probing /alice-secret on the work volume: no such file — different volume, different world")
	}
	must(aliceWork.Close())

	// --- Bob cannot see Alice's file even on her volume ----------------
	bob, err := steghide.DialFS(ctx, agentAddr, "bob", "bob-passphrase", steghide.WithVolume("personal"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Disclose(ctx, "/alice-secret"); errors.Is(err, steghide.ErrNotFound) {
		fmt.Println("bob probing /alice-secret: no such file (or wrong key) — same error, by design")
	}
	must(bob.Close())

	// --- Alice reads it back from a fresh session ----------------------
	must(alice.Close())
	alice2, err := steghide.DialFS(ctx, agentAddr, "alice", "alice-passphrase", steghide.WithVolume("personal"))
	if err != nil {
		log.Fatal(err)
	}
	got, err := steghide.ReadFile(ctx, alice2, "/alice-secret")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		log.Fatal("secret corrupted")
	}
	fmt.Printf("alice recovered her secret across sessions: %q\n\n", got)
	must(alice2.Close())

	// --- the daemon restarts mid-session ---------------------------------
	// WithRetry makes the session self-healing: when its connection
	// breaks, the client re-dials with backoff, replays the login and
	// the session's disclosures, and retries the interrupted read. The
	// user just sees a slow call, not a dead vault.
	carol, err := steghide.DialFS(ctx, agentAddr, "carol", "carol-passphrase", steghide.WithVolume("personal"),
		steghide.WithRetry(steghide.RetryPolicy{MaxRetries: 8, BaseBackoff: 20 * time.Millisecond}))
	if err != nil {
		log.Fatal(err)
	}
	must(carol.CreateDummy(ctx, "/carol-cover", 64))
	note := []byte("remember: the drop is thursday")
	must(steghide.WriteFile(ctx, carol, "/carol-note", note))

	// Drain and restart the daemon under her feet. Shutdown lets
	// in-flight requests finish and tells v2 clients to redial; the
	// dropped connections log their sessions out, which flushes every
	// saved file to the (still-running) storage servers.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	must(agentSrv.Shutdown(dctx))
	cancel()
	ln2, err := net.Listen("tcp", agentAddr)
	if err != nil {
		log.Fatal(err)
	}
	agentSrv2, err := steghide.ServeListener(ln2, personal, work)
	if err != nil {
		log.Fatal(err)
	}
	defer agentSrv2.Close()
	fmt.Println("agent daemon drained and restarted on the same address")

	got, err = steghide.ReadFile(ctx, carol, "/carol-note")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, note) {
		log.Fatal("note corrupted across the restart")
	}
	fmt.Printf("carol's session healed across the restart and read back: %q\n\n", got)
	must(carol.Close())

	// --- what the attacker saw ------------------------------------------
	events := steghide.ExpandEvents(personalTap.Events())
	reads, writes := 0, 0
	for _, e := range events {
		if e.Op.String() == "read" {
			reads++
		} else {
			writes++
		}
	}
	fmt.Printf("the personal volume's attacker observed %d reads and %d writes of opaque ciphertext\n", reads, writes)
	fmt.Println("every write landed on a uniformly random block — nothing to correlate")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
