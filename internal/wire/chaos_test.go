package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// This file is the chaos matrix: the conformance workloads driven
// through FaultListener fault schedules. The self-healing agent client
// must keep its contract — every operation either succeeds, fails with
// a taxonomy error, or (non-idempotent ops only) reports
// ErrMaybeApplied; the client never hangs and never latches broken.
// The direct storage client must fail only with transport errors and
// resume on a fresh dial. A model of the server's state rides along,
// with explicit ambiguity for writes that may have landed, so the
// tests also prove no fault silently corrupts: every successful read
// matches the model.

// chaosPolicy is the retry budget the chaos clients run under: fast
// backoff (the faults are local), enough attempts to ride out a run
// of torn connections.
func chaosPolicy(seed uint64) RetryPolicy {
	return RetryPolicy{MaxRetries: 10, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: seed}
}

// chaosOutcome checks the taxonomy contract on a failed op: the error
// must be a retryable transport failure (budget exhausted), a typed
// maybe-applied, or a peer-reported sentinel — never anything else.
func chaosOutcome(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrMaybeApplied) || errors.Is(err, ErrRemote) || transient(err) {
		return
	}
	t.Fatalf("%s: error outside the failure taxonomy: %v", op, err)
}

// chaosStoragePlan keeps budgets small for the whole run (the stock
// schedule's every-fourth-clean connection would fault-proof the rest
// of the test) while granting every sixth connection enough budget
// for a handful of calls, so retries always make progress.
func chaosStoragePlan(ord int, rng *prng.PRNG) FaultPlan {
	var p FaultPlan
	if ord%6 == 5 {
		p.CutAfter = 4096
	} else {
		p.CutAfter = 200 + rng.Uint64n(1200)
	}
	if rng.Uint64n(4) == 0 {
		p.ReadLatency = time.Duration(1+rng.Uint64n(2)) * time.Millisecond
	}
	return p
}

// TestChaosMatrixStorage drives the storage client the agent dials
// (DialStorage: one connection, no redial) through the fault schedule.
// A failed call latches the device broken; the test redials, as the
// device's owner would. A failed write may or may not have landed.
func TestChaosMatrixStorage(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const (
				blockSize = 128
				numBlocks = 512
				hotRange  = 48 // small address range keeps read/write collisions frequent
				ops       = 80
			)
			dev := blockdev.NewMem(blockSize, numBlocks)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fln := NewFaultListener(ln, seed)
			fln.Plan = chaosStoragePlan
			srv := NewStorageServer(fln, dev, nil)
			killed, kill := context.WithCancel(context.Background())
			kill()
			defer srv.Shutdown(killed) //nolint:errcheck // abrupt teardown

			dial := func() *RemoteDevice {
				for attempt := 0; ; attempt++ {
					dev, err := DialStorage(srv.Addr())
					if err == nil {
						return dev
					}
					if attempt > 50 {
						t.Fatalf("dial never survived the fault schedule: %v", err)
					}
					chaosOutcome(t, "DialStorage", err)
				}
			}
			cli := dial()
			defer func() { cli.Close() }()
			// fault checks a failed call and replaces the broken device.
			fault := func(op string, err error) {
				chaosOutcome(t, op, err)
				if errors.Is(err, ErrMaybeApplied) {
					t.Fatalf("%s: a direct device never retries, so never reports ErrMaybeApplied (got %v)", op, err)
				}
				cli.Close()
				cli = dial()
			}

			// The model: definite contents per block, or a candidate set
			// after failed writes. (Stacked failed writes
			// accumulate candidates: each one may or may not have landed,
			// so the block can hold the original value or any of them.)
			// Unwritten blocks are zero (Mem's initial state).
			definite := map[uint64][]byte{}
			ambiguous := map[uint64][][]byte{}
			known := func(b uint64) []byte {
				if d, ok := definite[b]; ok {
					return d
				}
				return make([]byte, blockSize)
			}

			rng := prng.NewFromUint64(seed).Child("chaos-driver")
			var okN, maybeN, failN int
			for i := 0; i < ops; i++ {
				block := rng.Uint64n(hotRange)
				if rng.Uint64n(2) == 0 {
					data := bytes.Repeat([]byte{byte(i + 1)}, blockSize)
					err := blockdev.WriteBlock(cli, block, data)
					if err == nil {
						definite[block] = data
						delete(ambiguous, block)
						okN++
						continue
					}
					fault("WriteBlock", err)
					if _, ok := ambiguous[block]; !ok {
						ambiguous[block] = [][]byte{known(block)}
					}
					ambiguous[block] = append(ambiguous[block], data)
					delete(definite, block)
					maybeN++
					continue
				}
				buf := make([]byte, blockSize)
				err := blockdev.ReadBlock(cli, block, buf)
				if err != nil {
					fault("ReadBlock", err)
					failN++
					continue
				}
				okN++
				if cands, ok := ambiguous[block]; ok {
					// Failed writes resolve at the next read: the
					// block must hold one of the candidates, and reading
					// pins which.
					resolved := false
					for _, c := range cands {
						if bytes.Equal(buf, c) {
							definite[block] = c
							resolved = true
							break
						}
					}
					if !resolved {
						t.Fatalf("block %d holds none of the %d candidates of its failed writes", block, len(cands))
					}
					delete(ambiguous, block)
					continue
				}
				if want := known(block); !bytes.Equal(buf, want) {
					t.Fatalf("block %d: read diverged from model", block)
				}
			}
			t.Logf("chaos storage seed=%d: %d ok, %d failed writes, %d failed reads", seed, okN, maybeN, failN)

			// A fresh dial eventually lands on a connection with budget
			// and reads.
			buf := make([]byte, blockSize)
			for attempt := 0; ; attempt++ {
				err := blockdev.ReadBlock(cli, 0, buf)
				if err == nil {
					break
				} else if attempt > 50 {
					t.Fatalf("50 post-chaos dials could not read, last: %v", err)
				}
				fault("ReadBlock", err)
			}
		})
	}
}

// chaosAgentPlan: agent calls are chattier (a reconnect replays login
// and disclosures before the retried op), so budgets are bigger, with
// every fifth connection roomy enough for sustained progress.
func chaosAgentPlan(ord int, rng *prng.PRNG) FaultPlan {
	var p FaultPlan
	if ord%5 == 4 {
		p.CutAfter = 1 << 20
	} else {
		p.CutAfter = 600 + rng.Uint64n(2000)
	}
	return p
}

func TestChaosMatrixAgent(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const (
				path    = "/vault/chaos.dat"
				fileLen = 256
				ops     = 40
			)
			agent := testAgent(t, 70+seed)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fln := NewFaultListener(ln, seed)
			fln.Plan = chaosAgentPlan
			srv, err := NewAgentServer(fln, map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			killed, kill := context.WithCancel(context.Background())
			kill()
			defer srv.Shutdown(killed) //nolint:errcheck // abrupt teardown

			cli, err := DialAgentRetry(context.Background(), chaosPolicy(seed), srv.Addr())
			if err != nil {
				t.Fatalf("initial dial never survived the fault schedule: %v", err)
			}
			defer cli.Close()

			// Login and file creation must converge under chaos: login is
			// idempotent (plain retry), create reconciles a maybe-applied
			// by checking whether the file exists.
			for attempt := 0; ; attempt++ {
				if err := cli.Login(ctx, "", "alice", "chaos-pass"); err == nil {
					break
				} else if attempt > 50 {
					t.Fatalf("login never succeeded: %v", err)
				} else {
					chaosOutcome(t, "Login", err)
				}
			}
			// Writes allocate from disclosed dummy space, so a dummy file
			// must converge first — same reconcile dance as Create.
			for attempt := 0; ; attempt++ {
				err := cli.CreateDummy(ctx, "/vault/dummy", 64)
				if err == nil {
					break
				}
				if attempt > 50 {
					t.Fatalf("CreateDummy never converged: %v", err)
				}
				chaosOutcome(t, "CreateDummy", err)
				if _, _, derr := cli.Disclose(ctx, "/vault/dummy"); derr == nil {
					break
				}
			}
			ensureFile(t, cli, path)

			// Establish definite contents with a converging rewrite: a
			// maybe-applied write of data D is reconciled by writing D
			// again — both candidate states agree once the rewrite lands.
			content := bytes.Repeat([]byte{0xA0}, fileLen)
			mustWrite(t, cli, path, content)

			var amb [][]byte // maybe-applied candidate contents, oldest first
			rng := prng.NewFromUint64(seed).Child("chaos-agent-driver")
			var okN, maybeN, failN int
			for i := 0; i < ops; i++ {
				switch rng.Uint64n(3) {
				case 0: // full-file rewrite
					data := bytes.Repeat([]byte{byte(i + 1)}, fileLen)
					err := cli.WriteV(ctx, path, Then{}, Segment{Off: 0, Data: data})
					switch {
					case err == nil:
						content, amb = data, nil
						okN++
					case errors.Is(err, ErrMaybeApplied):
						if amb == nil {
							amb = [][]byte{content}
						}
						amb = append(amb, data)
						maybeN++
					default:
						chaosOutcome(t, "Write", err)
						failN++
					}
				case 1: // read back, resolving any pending ambiguity
					buf := make([]byte, fileLen)
					n, err := cli.Read(ctx, path, buf, 0)
					if err != nil {
						chaosOutcome(t, "Read", err)
						if errors.Is(err, ErrMaybeApplied) {
							t.Fatalf("Read is idempotent; it must never report ErrMaybeApplied (got %v)", err)
						}
						failN++
						continue
					}
					okN++
					got := buf[:n]
					if amb != nil {
						resolved := false
						for _, c := range amb {
							if bytes.Equal(got, c) {
								content, amb, resolved = c, nil, true
								break
							}
						}
						if !resolved {
							t.Fatalf("file holds none of the %d maybe-applied candidates", len(amb))
						}
						continue
					}
					if !bytes.Equal(got, content) {
						t.Fatalf("read diverged from model (%d bytes)", n)
					}
				case 2: // metadata ops: list (idempotent), save (not)
					if rng.Uint64n(2) == 0 {
						files, err := cli.Files(ctx)
						if err != nil {
							chaosOutcome(t, "Files", err)
							if errors.Is(err, ErrMaybeApplied) {
								t.Fatalf("Files is idempotent; it must never report ErrMaybeApplied (got %v)", err)
							}
							failN++
							continue
						}
						okN++
						found := false
						for _, f := range files {
							if f == path {
								found = true
							}
						}
						if !found {
							t.Fatalf("Files() lost %q", path)
						}
					} else {
						err := cli.WriteV(ctx, path, Then{Save: true})
						// Save is non-idempotent on the wire but a no-op to
						// repeat; content is unchanged either way.
						if err != nil {
							chaosOutcome(t, "Save", err)
							failN++
						} else {
							okN++
						}
					}
				}
			}
			t.Logf("chaos agent seed=%d: %d ok, %d maybe-applied, %d failed", seed, okN, maybeN, failN)

			// Never latched: liveness and a consistent final read both
			// eventually succeed.
			for attempt := 0; ; attempt++ {
				if err := cli.Ping(ctx); err == nil {
					break
				} else if attempt > 50 {
					t.Fatalf("client latched: ping still failing: %v", err)
				}
			}
			for attempt := 0; ; attempt++ {
				buf := make([]byte, fileLen)
				n, err := cli.Read(ctx, path, buf, 0)
				if err != nil {
					if attempt > 50 {
						t.Fatalf("final read never succeeded: %v", err)
					}
					continue
				}
				got := buf[:n]
				if amb != nil {
					matched := false
					for _, c := range amb {
						matched = matched || bytes.Equal(got, c)
					}
					if !matched {
						t.Fatalf("final read holds none of the maybe-applied candidates")
					}
				} else if !bytes.Equal(got, content) {
					t.Fatalf("final read diverged from model")
				}
				break
			}
		})
	}
}

// ensureFile converges Create under chaos: a maybe-applied create is
// reconciled by disclosing the path — if the file exists the create
// landed; if not, try again.
func ensureFile(t *testing.T, cli *Client, path string) {
	t.Helper()
	ctx := context.Background()
	for attempt := 0; ; attempt++ {
		err := cli.Create(ctx, path)
		if err == nil {
			return
		}
		if attempt > 50 {
			t.Fatalf("Create never converged: %v", err)
		}
		chaosOutcome(t, "Create", err)
		if _, _, derr := cli.Disclose(ctx, path); derr == nil {
			return // the ambiguous create had in fact applied
		}
	}
}

// mustWrite converges a full-content write: rewriting identical bytes
// collapses maybe-applied ambiguity, so looping until a clean success
// always ends in a definite state.
func mustWrite(t *testing.T, cli *Client, path string, data []byte) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := cli.WriteV(context.Background(), path, Then{}, Segment{Off: 0, Data: data})
		if err == nil {
			return
		}
		if attempt > 50 {
			t.Fatalf("write never converged: %v", err)
		}
		chaosOutcome(t, "Write", err)
	}
}

// driveAgentWorkload runs a deterministic session against cli: log in,
// disclose cover, then a seeded mix of reads, writes and saves of one
// file. Identical seeds produce identical call sequences, so two agents
// driven this way over the same volume must record identical traces.
func driveAgentWorkload(t *testing.T, cli *Client, seed uint64, ops int) {
	t.Helper()
	ctx := context.Background()
	const path, fileLen = "/vault/def1.dat", 2048
	if err := cli.Login(ctx, "", "alice", "def1-pass"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(ctx, "/vault/cover", 64); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, path); err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(seed).Child("def1-workload")
	buf := make([]byte, fileLen)
	for i := 0; i < ops; i++ {
		off := rng.Uint64n(fileLen / 2)
		switch rng.Uint64n(3) {
		case 0:
			if _, err := cli.Read(ctx, path, buf[:rng.Uint64n(fileLen/2)+1], off); err != nil {
				t.Fatal(err)
			}
		case 1:
			data := bytes.Repeat([]byte{byte(i)}, int(rng.Uint64n(fileLen/2)+1))
			if err := cli.WriteV(ctx, path, Then{}, Segment{Off: off, Data: data}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := cli.WriteV(ctx, path, Then{Save: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cli.Logout(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRetryTrafficIdenticalToDirect is the Definition-1 regression
// for the self-healing layer: with retries enabled on a fault-free
// link, the agent's device stream — the adversary's view in the
// paper's model — is bit-identical to a plain client's, and every
// figure metric computed from it is unchanged. (The retry layer adds
// no probe traffic, reorders nothing, and duplicates nothing unless a
// fault actually fires.)
func TestRetryTrafficIdenticalToDirect(t *testing.T) {
	const (
		blockSize = 256
		numBlocks = 2048
		ops       = 60
	)
	run := func(retry bool) []blockdev.Event {
		tap := &blockdev.Collector{}
		vol, err := stegfs.Format(blockdev.NewTraced(blockdev.NewMem(blockSize, numBlocks), tap),
			stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("def1")})
		if err != nil {
			t.Fatal(err)
		}
		agent := steghide.NewVolatile(vol, prng.NewFromUint64(7))
		srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tap.Reset()
		var cli *Client
		if retry {
			cli, err = DialAgentRetry(context.Background(), RetryPolicy{JitterSeed: 99}, srv.Addr())
		} else {
			cli, err = DialAgent(context.Background(), srv.Addr())
		}
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		driveAgentWorkload(t, cli, 1234, ops)
		return tap.Events()
	}

	direct := run(false)
	retried := run(true)
	if len(direct) == 0 {
		t.Fatal("the workload reached the device not at all")
	}
	if !reflect.DeepEqual(direct, retried) {
		t.Fatalf("retry layer perturbed the observed stream: %d direct vs %d retried events", len(direct), len(retried))
	}

	// The figure metrics agree exactly — same stream, same verdicts.
	an := attack.NewTrafficAnalyzer(numBlocks)
	vd, err := an.FrequencySkew(direct, 16)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := an.FrequencySkew(retried, 16)
	if err != nil {
		t.Fatal(err)
	}
	if vd != vr {
		t.Fatalf("FrequencySkew verdicts diverge: direct %+v, retried %+v", vd, vr)
	}
	rd, dd := an.RepeatedReads(direct)
	rr, dr := an.RepeatedReads(retried)
	if rd != rr || dd != dr {
		t.Fatalf("RepeatedReads diverge: direct (%d,%d), retried (%d,%d)", rd, dd, rr, dr)
	}
}

// BenchmarkRetryOverhead pairs a plain client against a retry-enabled
// one on a fault-free link: the per-op cost of the send-state
// tracking and the healthy-connection fast path. The acceptance bar
// is ≤2% on reads.
func BenchmarkRetryOverhead(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []string{"direct", "retry"} {
		b.Run(mode, func(b *testing.B) {
			vol, err := stegfs.Format(blockdev.NewMem(4096, 1024), stegfs.FormatOptions{KDFIterations: 4})
			if err != nil {
				b.Fatal(err)
			}
			agent := steghide.NewVolatile(vol, prng.NewFromUint64(7))
			srv, err := NewAgentServer(listen(b), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var cli *Client
			if mode == "retry" {
				cli, err = DialAgentRetry(ctx, RetryPolicy{JitterSeed: 7}, srv.Addr())
			} else {
				cli, err = DialAgent(ctx, srv.Addr())
			}
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
				b.Fatal(err)
			}
			if err := cli.Create(ctx, "/f"); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Read(ctx, "/f", buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzFaultConnTear drives a frame through a FaultConn with an
// arbitrary byte budget: the peer must either decode the frame intact
// (budget not hit) or get a clean transport error from the torn
// prefix — never a corrupted frame, never a hang. This is the chaos
// harness's own conformance fuzz: the tearing machinery must tear
// frames, not bytes inside intact frames.
func FuzzFaultConnTear(f *testing.F) {
	f.Add([]byte("hello world"), uint16(5))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("exactly"), uint16(16+7)) // cut lands on the frame boundary
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint16(200))
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		if uint64(len(body)) > fuzzLimit {
			return
		}
		client, server := net.Pipe()
		fc := NewFaultConn(client, FaultPlan{CutAfter: uint64(cut)})
		sent := frame{Type: msgWriteV, ID: 9, Body: body}
		werr := make(chan error, 1)
		go func() {
			werr <- writeFrame(fc, sent)
			fc.Close()
		}()
		got, rerr := readFrame(server, fuzzLimit)
		server.Close()
		if rerr == nil {
			if got.Type != sent.Type || got.ID != sent.ID || !bytes.Equal(got.Body, sent.Body) {
				t.Fatalf("frame survived the fault plan but decoded differently")
			}
		}
		if err := <-werr; err != nil && !errors.Is(err, ErrInjectedFault) {
			// The writer either succeeds or reports the injected cut;
			// net.Pipe's close races can also surface as a pipe error,
			// which is the peer-hung-up case, fine too.
			if !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("writer failed outside the fault taxonomy: %v", err)
			}
		}
	})
}
