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
// WithObliviousCache, WithDaemon, WithTrace, WithStripe, WithSim,
// WithSeed.
//
// The constructors below (NewVolatileAgent, NewNonVolatileAgent,
// NewObliviousFS, ...) remain as the thin assembly layer Mount is
// built from — established code keeps working unchanged, and
// Mount-built stacks are bit-identical to manual wiring given the
// same seeds.
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
	"time"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
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
// CreateFileDevice/OpenFileDevice, NewSimDevice, DialStorage.
type Device = blockdev.Device

// BatchDevice is a Device with a native multi-block fast path. All
// devices in this package implement it; use ReadBlocks/WriteBlocks to
// get the fast path with a loop fallback on third-party devices.
type BatchDevice = blockdev.BatchDevice

// ReadBlocks fills bufs with the contiguous blocks starting at start,
// using the device's batched fast path when it has one.
func ReadBlocks(d Device, start uint64, bufs [][]byte) error {
	return blockdev.ReadBlocks(d, start, bufs)
}

// WriteBlocks stores data as the contiguous blocks starting at start,
// using the device's batched fast path when it has one.
func WriteBlocks(d Device, start uint64, data [][]byte) error {
	return blockdev.WriteBlocks(d, start, data)
}

// ReadBlocksAt fills bufs[i] with block idx[i], batched when possible.
func ReadBlocksAt(d Device, idx []uint64, bufs [][]byte) error {
	return blockdev.ReadBlocksAt(d, idx, bufs)
}

// WriteBlocksAt stores data[i] as block idx[i], batched when possible.
func WriteBlocksAt(d Device, idx []uint64, data [][]byte) error {
	return blockdev.WriteBlocksAt(d, idx, data)
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

// NewStripedDevice aggregates several devices (local or remote) into
// one volume, block-striped round-robin — the data-grid / P2P
// deployment the paper's §7 points to. The hiding constructions'
// uniform access streams spread evenly across members, so no single
// node observes more than its share of the already pattern-free
// traffic.
func NewStripedDevice(members ...Device) (*blockdev.Striped, error) {
	return blockdev.NewStriped(members...)
}

// DiskParams2004 returns the simulated-drive parameters matching the
// paper's testbed (Table 1).
func DiskParams2004(numBlocks uint64, blockSize int) diskmodel.Params {
	return diskmodel.Params2004(numBlocks, blockSize)
}

// NewSimDevice wraps a device so accesses advance a simulated 2004
// drive's virtual clock (disk.Now reports elapsed service time).
func NewSimDevice(base Device, params diskmodel.Params) (*blockdev.Sim, error) {
	disk, err := diskmodel.New(params)
	if err != nil {
		return nil, err
	}
	return blockdev.NewSim(base, disk), nil
}

// PRNG is the deterministic SHA-256 generator all randomized choices
// flow through.
type PRNG = prng.PRNG

// NewPRNG seeds a generator from arbitrary bytes.
func NewPRNG(seed []byte) *PRNG { return prng.New(seed) }

// Key is a 256-bit symmetric key.
type Key = sealer.Key

// DeriveKey derives a labelled subkey from secret material.
func DeriveKey(secret []byte, label string) Key { return sealer.DeriveKey(secret, label) }

// Volume is an open steganographic volume; File is an open hidden
// file; FAK is a file access key (locator + header key + content
// key); FormatOptions controls Format.
type (
	Volume        = stegfs.Volume
	File          = stegfs.File
	FAK           = stegfs.FAK
	FormatOptions = stegfs.FormatOptions
	BlockSource   = stegfs.BlockSource
	UpdatePolicy  = stegfs.UpdatePolicy
)

// Format initializes a steganographic volume on dev: superblock plus
// a random fill that makes every block plausible ciphertext.
func Format(dev Device, opts FormatOptions) (*Volume, error) { return stegfs.Format(dev, opts) }

// OpenVolume opens an existing volume. rng is the caller's secret
// generator: the volume keys its IV and filler stream from it.
func OpenVolume(dev Device, rng *PRNG) (*Volume, error) { return stegfs.Open(dev, rng) }

// DeriveFAK derives a file's access key from a passphrase and path.
func DeriveFAK(passphrase, pathname string, vol *Volume) FAK {
	return stegfs.DeriveFAK(passphrase, pathname, vol)
}

// Power-user file layer: direct (FAK, path) access without an agent.
// Most callers should prefer the agents, which add the access hiding.
type (
	// Dir is a hidden directory: an enumerable, deniable listing.
	Dir = stegfs.Dir
	// InPlacePolicy is the non-hiding update policy of the 2003 StegFS.
	InPlacePolicy = stegfs.InPlacePolicy
	// CheckReport is the result of a volume integrity check.
	CheckReport = stegfs.CheckReport
)

// NewBitmapSource builds the standard block allocator over the steg
// space of a volume.
func NewBitmapSource(vol *Volume, rng *PRNG) *stegfs.BitmapSource {
	return stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng)
}

// CreateHiddenFile, OpenHiddenFile, CreateHiddenDir and OpenHiddenDir
// are the raw (FAK, path) file layer.
func CreateHiddenFile(vol *Volume, fak FAK, path string, src BlockSource) (*File, error) {
	return stegfs.CreateFile(vol, fak, path, src)
}

// OpenHiddenFile opens an existing hidden file.
func OpenHiddenFile(vol *Volume, fak FAK, path string, src BlockSource) (*File, error) {
	return stegfs.OpenFile(vol, fak, path, src)
}

// CreateHiddenDir creates a hidden directory.
func CreateHiddenDir(vol *Volume, fak FAK, path string, src BlockSource) (*Dir, error) {
	return stegfs.CreateDir(vol, fak, path, src)
}

// OpenHiddenDir opens a hidden directory.
func OpenHiddenDir(vol *Volume, fak FAK, path string, src BlockSource) (*Dir, error) {
	return stegfs.OpenDir(vol, fak, path, src)
}

// CheckVolume verifies everything reachable with the given
// credentials (passphrase → paths): header decode, checksummed
// pointer chains, data-block readability, no cross-owned blocks.
func CheckVolume(vol *Volume, creds map[string][]string) (*CheckReport, error) {
	return stegfs.Check(vol, creds)
}

// Journal types re-exported for the durability plane
// (internal/journal): the sealed intent ring and its reports.
type (
	Journal           = journal.Journal
	JournalRecord     = journal.Record
	JournalReport     = journal.Report
	JournalFsckReport = journal.FsckReport
)

// JournalKey derives a Construction-2 journal key from an
// administrator passphrase and the volume salt.
func JournalKey(vol *Volume, passphrase string) Key {
	return steghide.JournalKey(vol, passphrase)
}

// JournalKeyFromSecret derives the journal key from an agent secret
// the way the agents do (construction "c1" for the non-volatile
// agent), for external tooling such as fsck.
func JournalKeyFromSecret(secret []byte, construction string) Key {
	return steghide.JournalKeyFromSecret(secret, construction)
}

// OpenJournal attaches to the intent ring of a volume formatted with
// FormatOptions.JournalBlocks > 0.
func OpenJournal(vol *Volume, key Key) (*Journal, error) { return journal.Open(vol, key) }

// JournalFsck verifies the journal region — cell seal/tag integrity,
// sequence continuity — and reports intents no completed save covers,
// so a dirty volume is named instead of silently passing.
func JournalFsck(vol *Volume, key Key) (*JournalFsckReport, error) {
	return journal.Fsck(vol, key)
}

// DummyDaemon emits idle-time dummy updates on a period (§4.1.3).
type DummyDaemon = steghide.Daemon

// DummySource is anything that can emit one dummy update — both
// agent constructions implement it.
type DummySource = steghide.DummySource

// NewDummyDaemon wires a daemon to either agent construction.
func NewDummyDaemon(src steghide.DummySource, period time.Duration) *DummyDaemon {
	return steghide.NewDaemon(src, period)
}

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
// metrics invariance oracle. MetricValue is one series' state in a
// Snapshot.
type (
	Metrics     = obs.Registry
	MetricValue = obs.Value
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// RegisterClientMetrics exports the self-healing wire client's
// redial/retry/maybe-applied counters through m (process-wide totals
// shared by every Redialer-backed client in the process).
func RegisterClientMetrics(m *Metrics) { wire.RegisterClientMetrics(m) }

// NonVolatileAgent is Construction 1 (§4.1, "StegHide*"): the agent
// keeps a global block key and the data/dummy bitmap in persistent
// memory. VolatileAgent is Construction 2 (§4.2, "StegHide"): the
// agent boots with zero knowledge and learns keys only at login.
type (
	NonVolatileAgent = steghide.NonVolatileAgent
	VolatileAgent    = steghide.VolatileAgent
	Session          = steghide.Session
	UpdateStats      = steghide.UpdateStats
)

// NewNonVolatileAgent creates the Construction 1 agent over a freshly
// formatted volume.
func NewNonVolatileAgent(vol *Volume, secret []byte, rng *PRNG) (*NonVolatileAgent, error) {
	return steghide.NewNonVolatile(vol, secret, rng)
}

// NewVolatileAgent creates the Construction 2 agent; users bring
// their keys at login.
func NewVolatileAgent(vol *Volume, rng *PRNG) *VolatileAgent {
	return steghide.NewVolatile(vol, rng)
}

// ObliviousStore is the §5 hierarchical cache; ObliviousFS composes
// it with a StegFS partition into the full read-hiding system.
type (
	ObliviousStore  = oblivious.Store
	ObliviousConfig = oblivious.Config
	ObliviousFS     = oblivious.FS
	BlockID         = oblivious.BlockID
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
	Verdict         = attack.Verdict
)

// NewUpdateAnalyzer builds the snapshot-diffing attacker.
func NewUpdateAnalyzer(blockSize int, nBlocks uint64) *UpdateAnalyzer {
	return attack.NewUpdateAnalyzer(blockSize, nBlocks)
}

// NewTrafficAnalyzer builds the wire-tapping attacker.
func NewTrafficAnalyzer(nBlocks uint64) *TrafficAnalyzer {
	return attack.NewTrafficAnalyzer(nBlocks)
}

// CompareStreams is the operational form of Definition 1 (§3.2.4):
// given the write-address sets of an idle (dummy-only) interval and
// an active interval, decide whether an observer can tell them apart.
// A secure deployment yields Detected == false for any workload; the
// regression oracles use it to pin that optimizations move no
// observable byte.
func CompareStreams(idle, active []uint64, nBlocks uint64, bins int) (Verdict, error) {
	return attack.CompareStreams(idle, active, nBlocks, bins)
}

// CompareStreamsK generalizes CompareStreams to k snapshots: given the
// write-address sets of k observation intervals, decide whether any
// interval's spatial distribution stands out from the rest — the
// adversary who diffs every consecutive snapshot pair instead of just
// two. A secure deployment keeps every interval (idle, busy, or
// mid-rebalance) drawn from the same uniform process.
func CompareStreamsK(streams [][]uint64, nBlocks uint64, bins int) (Verdict, error) {
	return attack.CompareStreamsK(streams, nBlocks, bins)
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

// Self-healing remote layer. A retry-enabled client (DialAgentRetry,
// DialStorageRetry, or DialFS with WithRetry) re-dials broken
// connections with exponential backoff, replays its session, and
// transparently retries idempotent calls. RetryPolicy bounds that
// loop; the zero value means library defaults.
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

// DialAgentRetry is DialAgent with self-healing: the client rotates
// through addrs on dial failure and goaway (a draining server),
// re-dials broken connections under policy, and replays the session
// (login plus disclosures) before retrying.
func DialAgentRetry(ctx context.Context, policy RetryPolicy, addrs ...string) (*AgentClient, error) {
	return wire.DialAgentRetry(ctx, policy, addrs...)
}

// DialStorageRetry is DialStorage with self-healing; reconnects
// verify the device geometry is unchanged before any retried I/O.
func DialStorageRetry(ctx context.Context, policy RetryPolicy, addrs ...string) (*RemoteDevice, error) {
	return wire.DialStorageRetry(ctx, policy, addrs...)
}

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
