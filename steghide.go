// Package steghide is a steganographic file system that hides not
// only the existence of files but also the *accesses* to them,
// reproducing Zhou, Pang & Tan, "Hiding Data Accesses in
// Steganographic File System" (ICDE 2004).
//
// # What it gives you
//
//   - A StegFS volume: fixed-size encrypted blocks on any Device;
//     hidden files are block trees rooted at headers derivable only
//     from a file access key (FAK), on a volume whose free space is
//     indistinguishable random noise.
//   - Update hiding (§4 of the paper): agents that relocate every
//     updated block to a uniformly random position and emit dummy
//     updates, so a snapshot-diffing attacker sees the same uniform
//     process whether or not real work happens. Two constructions:
//     NonVolatileAgent (one persistent agent key; "StegHide*") and
//     VolatileAgent (per-user keys disclosed at login, forgotten at
//     logout, with deniable dummy files; "StegHide"). Both are safe
//     for concurrent use: a per-volume scheduler merges all sessions'
//     update intents into one uniformly random stream, so many users
//     (locally or via AgentServer) overlap their crypto and I/O
//     without weakening the §3.2.4 indistinguishability argument.
//   - Read hiding (§5): an ObliviousStore — a hierarchy of levels à
//     la hierarchical ORAM, reshuffled by external merge sort — used
//     as a cache in front of the StegFS partition so read patterns
//     are destroyed too.
//   - The substrate to run and evaluate it all: in-memory/file block
//     devices, a 2004-era disk model with a virtual clock, the
//     conventional-FS baselines, the attacker implementations, and an
//     experiment harness that regenerates every table and figure of
//     the paper (see cmd/benchrunner).
//
// # Quick start
//
// Mount assembles the stack; Login returns the unified FS interface
// every front-end of this package implements:
//
//	ctx := context.Background()
//	dev := steghide.NewMemDevice(4096, 1<<15)
//	stack, _ := steghide.Mount(dev,
//	    steghide.WithFormat(steghide.FormatOptions{}),
//	    steghide.WithDaemon(250*time.Millisecond)) // idle dummy traffic
//	defer stack.Close()
//	fs, _ := stack.Login("alice", "correct horse")
//	fs.CreateDummy(ctx, "/cover", 4096) // deniable cover + relocation targets
//	steghide.WriteFile(ctx, fs, "/secret", []byte("hello"))
//	fs.Close() // logout: the agent forgets everything
//
// The same FS is served by Construction 1 (WithConstruction1), remote
// agents (DialFS), the read-hiding oblivious composition
// (WithObliviousCache), and a sharded fleet — Cluster/DialClusterFS
// place files over many daemons by keyed consistent hashing of the
// hidden pathname, so one deniable namespace spans N disks while each
// disk's update stream stays independently uniform — code written
// against it cannot tell which construction is hiding its accesses.
// Failed operations return
// *PathError values wrapping the package sentinels, across the wire
// too; contexts are honored at the scheduler draw loop and the wire
// round trip. Options: WithFormat, WithConstruction1/2, WithJournal,
// WithObliviousCache, WithDaemon, WithTrace, WithStripe, WithSeed.
//
// There is one way in: Mount to build a stack, DialFS (or DialClusterFS
// for a fleet) to reach a session, NewServer to serve one. Mount wires
// the internal packages itself, and TestMountBitIdentical pins that a
// Mount-built stack is bit-identical to wiring those packages by hand
// with the same seeds.
//
// See examples/ for runnable programs, DESIGN.md for the system
// inventory (including the "Public API" section mapping FS to the
// paper's request model), and EXPERIMENTS.md for paper-vs-measured
// results.
package steghide

import (
	"context"
	"fmt"
	"net"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/oblivious"
	"steghide/internal/obs"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
	"steghide/internal/wire"
)

// Device is a fixed-geometry block store — the raw storage of the
// system model. Implementations in this package: NewMemDevice,
// CreateFileDevice/OpenFileDevice, DialStorage.
type Device = blockdev.Device

// BatchDevice is a Device that also moves one block per call. Every
// Device moves batches and a single block is a batch of one, so no
// part of this package uses it; it remains because the benchmark
// module's counting device wraps one. MemDevice implements it.
type BatchDevice interface {
	Device
	ReadBlock(i uint64, buf []byte) error
	WriteBlock(i uint64, data []byte) error
}

// AllocBlocks carves n block buffers out of one allocation — the
// cheap way to build batch buffer vectors.
func AllocBlocks(n, blockSize int) [][]byte { return blockdev.AllocBlocks(n, blockSize) }

// ExpandEvents flattens batched (ranged) trace events into one event
// per block for per-address analysis.
func ExpandEvents(events []Event) []Event { return blockdev.ExpandEvents(events) }

// Tracer receives every access on a traced device; Collector retains
// them — the attacker's observation stream.
type (
	Tracer    = blockdev.Tracer
	Collector = blockdev.Collector
	Event     = blockdev.Event
)

// MemDevice is the in-memory Device; its Snapshot method is the
// update-analysis attacker's primitive.
type MemDevice = blockdev.Mem

// NewMemDevice allocates an in-memory device of n blocks.
func NewMemDevice(blockSize int, n uint64) *MemDevice {
	return blockdev.NewMem(blockSize, n)
}

// FaultDevice wraps a device with failure injection, including the
// power-cut mode the crash-recovery walkthrough and tests use.
type FaultDevice = blockdev.FaultDevice

// NewFaultDevice wraps base with no faults armed.
func NewFaultDevice(base Device) *FaultDevice { return blockdev.NewFault(base) }

// ErrPowerCut is what every operation returns after a power-cut fault
// fires, until FaultDevice.Heal simulates the reboot.
var ErrPowerCut = blockdev.ErrPowerCut

// CreateFileDevice creates (or truncates) a file-backed device.
func CreateFileDevice(path string, blockSize int, n uint64) (*blockdev.File, error) {
	return blockdev.CreateFile(path, blockSize, n)
}

// OpenFileDevice opens an existing file-backed device.
func OpenFileDevice(path string, blockSize int) (*blockdev.File, error) {
	return blockdev.OpenFile(path, blockSize)
}

// NewTracedDevice wraps a device so every access is published to the
// tracer — the attacker's wire tap, or the experiment probes.
func NewTracedDevice(base Device, t Tracer) *blockdev.Traced {
	return blockdev.NewTraced(base, t)
}

// PRNG is the deterministic SHA-256 generator all randomized choices
// flow through.
type PRNG = prng.PRNG

// Key is a 256-bit symmetric key.
type Key = sealer.Key

// DeriveKey derives a labelled subkey from secret material.
func DeriveKey(secret []byte, label string) Key { return sealer.DeriveKey(secret, label) }

// Volume is an open steganographic volume; FAK is a file access key
// (locator + header key + content key); FormatOptions controls Format;
// CheckReport is the result of a volume integrity check (Stack.Fsck).
type (
	Volume        = stegfs.Volume
	FAK           = stegfs.FAK
	FormatOptions = stegfs.FormatOptions
	CheckReport   = stegfs.CheckReport
)

// Format initializes a steganographic volume on dev: superblock plus
// a random fill that makes every block plausible ciphertext.
func Format(dev Device, opts FormatOptions) (*Volume, error) { return stegfs.Format(dev, opts) }

// DeriveFAK derives a file's access key from a passphrase and path.
func DeriveFAK(passphrase, pathname string, vol *Volume) FAK {
	return stegfs.DeriveFAK(passphrase, pathname, vol)
}

// JournalReport is a journal recovery's outcome; JournalFsckReport is
// the intent ring's integrity check (Stack.Fsck).
type (
	JournalReport     = journal.Report
	JournalFsckReport = journal.FsckReport
)

// DummyDaemon emits idle-time dummy updates on a period (§4.1.3).
type DummyDaemon = steghide.Daemon

// Errors re-exported for errors.Is checks.
var (
	ErrNotFound     = stegfs.ErrNotFound
	ErrVolumeFull   = stegfs.ErrVolumeFull
	ErrNoDummySpace = steghide.ErrNoDummySpace
	ErrCacheFull    = oblivious.ErrCacheFull
)

// Metrics is the leakage-audited metrics registry of the
// observability plane: zero-dependency atomic counters, gauges and
// fixed-bucket histograms with Prometheus-text and JSON exposition.
// Attach one to a stack with WithMetrics and to a server with
// ServerConfig.Metrics; every exported series carries a leakage
// argument in DESIGN.md ("Observability plane"), and attaching a
// registry is proven not to move a single observable byte by the
// metrics invariance oracle.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NonVolatileAgent is Construction 1 (§4.1, "StegHide*"): the agent
// keeps a global block key and the data/dummy bitmap in persistent
// memory. VolatileAgent is Construction 2 (§4.2, "StegHide"): the
// agent boots with zero knowledge and learns keys only at login.
type (
	NonVolatileAgent = steghide.NonVolatileAgent
	VolatileAgent    = steghide.VolatileAgent
	UpdateStats      = steghide.UpdateStats
)

// ObliviousStore is the §5 hierarchical cache; ObliviousFS composes
// it with a StegFS partition into the full read-hiding system.
type (
	ObliviousStore  = oblivious.Store
	ObliviousConfig = oblivious.Config
	ObliviousFS     = oblivious.FS
)

// ObliviousFootprint returns the device blocks a store geometry
// occupies (levels plus sort scratch).
func ObliviousFootprint(bufferBlocks, levels int) uint64 {
	return oblivious.Footprint(bufferBlocks, levels)
}

// NewObliviousStore builds and formats an oblivious store.
func NewObliviousStore(cfg ObliviousConfig) (*ObliviousStore, error) { return oblivious.New(cfg) }

// NewObliviousFS wires an oblivious store to a StegFS partition.
func NewObliviousFS(store *ObliviousStore, vol *Volume, rng *PRNG) (*ObliviousFS, error) {
	return oblivious.NewFS(store, vol, rng)
}

// UpdateAnalyzer and TrafficAnalyzer are the §3.2.2 attackers, for
// validating deployments the way the examples do.
type (
	UpdateAnalyzer  = attack.UpdateAnalyzer
	TrafficAnalyzer = attack.TrafficAnalyzer
)

// NewUpdateAnalyzer builds the snapshot-diffing attacker.
func NewUpdateAnalyzer(blockSize int, nBlocks uint64) *UpdateAnalyzer {
	return attack.NewUpdateAnalyzer(blockSize, nBlocks)
}

// NewTrafficAnalyzer builds the wire-tapping attacker.
func NewTrafficAnalyzer(nBlocks uint64) *TrafficAnalyzer {
	return attack.NewTrafficAnalyzer(nBlocks)
}

// Wire layer: serve raw storage or volatile agents over TCP, per the
// §3.2 system model. Protocol v2 multiplexes every connection —
// concurrent calls pipeline, cancellation abandons one request, and
// one agent daemon serves many volumes. Peers of the lock-step v1
// protocol are refused at the hello.
type (
	StorageServer = wire.StorageServer
	AgentServer   = wire.AgentServer
	AgentClient   = wire.Client
	RemoteDevice  = wire.RemoteDevice
)

// ErrConnBroken reports a remote connection lost to a transport
// fault; redial to recover. ErrUnknownVolume reports a login naming a
// volume the agent server does not serve.
var (
	ErrConnBroken    = wire.ErrConnBroken
	ErrUnknownVolume = wire.ErrUnknownVolume
)

// Self-healing remote layer. A retry-enabled session (DialFS with
// WithRetry) re-dials broken connections with exponential backoff,
// replays its session, and transparently retries idempotent calls.
// RetryPolicy bounds that loop; the zero value means library defaults.
type RetryPolicy = wire.RetryPolicy

// ErrMaybeApplied reports a non-idempotent call (write, save, create,
// delete) whose connection broke after the request may have reached
// the server: the retry layer refuses to guess, because re-executing
// could double-apply. The caller reconciles — re-issuing a
// whole-content write or checking state first is always safe.
// ErrUserBusy reports a login for a user some live session already
// holds (sessions are exclusive per user; a crashed client's session
// clears as soon as its connection drops).
var (
	ErrMaybeApplied = wire.ErrMaybeApplied
	ErrUserBusy     = steghide.ErrUserBusy
)

// errExists is what a create of an already-open path wraps, on every
// FS surface and across the wire; the fan-outs match on it.
var errExists = steghide.ErrExists

// NewStorageServer serves dev on addr; tap (optional) observes all
// traffic like a wire attacker would.
func NewStorageServer(addr string, dev Device, tap Tracer) (*StorageServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return wire.NewStorageServer(ln, dev, tap), nil
}

// DialStorage connects to a remote storage server as a Device.
func DialStorage(addr string) (*RemoteDevice, error) { return wire.DialStorage(addr) }

// DialAgent connects a user to an agent server.
func DialAgent(addr string) (*AgentClient, error) { return wire.DialAgent(context.Background(), addr) }
