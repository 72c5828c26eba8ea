// Package journal implements the steganographic intent journal: a
// crash-consistency plane for the Figure-6 update stream whose own
// on-disk footprint discloses nothing.
//
// A conventional write-ahead log would hand the §3 snapshot attacker a
// labelled record of exactly the accesses the constructions hide. The
// journal therefore holds itself to the same bar as the stream it
// protects:
//
//   - Slots live in a fixed ring region of the volume (right after the
//     superblock, carved out via blockdev.SubDevice) that format fills
//     with random bytes, so an empty ring and a full ring look alike.
//   - Every record is sealed under a journal key the agent derives
//     from its secret: a fixed-size CBC-encrypted record area with a
//     fresh IV and a keyed integrity tag. Ciphertext is
//     indistinguishable from the random fill; the tag is what
//     separates "record" from "noise" for the key holder, so slot
//     occupancy itself is invisible without the key.
//   - Every slot overwrite changes the same fixed prefix of the slot
//     (IV + sealed record area), whatever the record says. The bytes
//     past the prefix are static cover inherited from the previous
//     slot content, so a dummy filler and a ten-address allocation
//     record are byte-for-byte indistinguishable in how they touch
//     the disk.
//   - The scheduler emits exactly one slot write per element of the
//     update stream — real intents before relocations, dummy fillers
//     for dummy and camouflage updates — so ring traffic carries the
//     stream's cadence and nothing else: journaling changes
//     throughput, never the observable address distribution.
//
// Recovery (the agents' Recover methods in internal/steghide) scans
// the ring under the key and resolves every intent against the disk
// truth: a file's durable header is its commit point, so an intent is
// committed exactly when the saved block map references its target.
//
// Ordering assumption: the device persists writes in issue order (the
// in-memory and fault devices do by construction; a file-backed
// deployment on a writeback cache would need an fsync barrier between
// an intent append and the payload write it precedes — the Device
// plane has no such barrier today, and DESIGN.md records the gap).
package journal

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"sync"

	"steghide/internal/blockdev"
	"steghide/internal/obs"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// Op is the type of one intent record.
type Op uint8

const (
	// OpDummy is the filler record emitted for dummy and camouflage
	// updates, keeping ring traffic one-to-one with the stream.
	OpDummy Op = iota + 1
	// OpReloc is the intent "the data at OldLoc moves to NewLoc",
	// durable before the payload write.
	OpReloc
	// OpAlloc is the intent "the file at FileH acquired Locs", durable
	// before any of them is written or referenced.
	OpAlloc
	// OpFree is the intent "the file at FileH gives up Locs", durable
	// before they are released.
	OpFree
	// OpSave marks the file's header save as durable: every earlier
	// intent of the file is now decided by the on-disk header.
	OpSave
	// OpCheckpoint marks an external state snapshot (Construction 1's
	// bitmap export); fsck uses it to bound "dirty since".
	OpCheckpoint
	opMax
)

// String renders the op name.
func (o Op) String() string {
	switch o {
	case OpDummy:
		return "dummy"
	case OpReloc:
		return "reloc"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpSave:
		return "save"
	case OpCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one decoded intent.
type Record struct {
	// Seq is the record's position in the append order; the ring slot
	// is Seq-1 mod ring size.
	Seq uint64
	// Op says what the record intends.
	Op Op
	// FileH is the header location of the file the intent concerns
	// (zero for dummies and checkpoints).
	FileH uint64
	// OldLoc and NewLoc are the relocation endpoints (OpReloc only).
	OldLoc, NewLoc uint64
	// Locs are the blocks an OpAlloc/OpFree concerns.
	Locs []uint64
}

// touches returns every steg-space location the record makes a claim
// about.
func (r *Record) touches() []uint64 {
	switch r.Op {
	case OpReloc:
		return []uint64{r.OldLoc, r.NewLoc}
	case OpAlloc, OpFree:
		return r.Locs
	default:
		return nil
	}
}

// Record area layout (plaintext, fixed recordArea bytes, sealed as
// IV ‖ CBC(area) at the head of the slot):
//
//	off  0  magic  [4]byte "SJR1"
//	off  4  op     uint8
//	off  5  nLocs  uint8
//	off  6  pad    uint16 (zero)
//	off  8  seq    uint64
//	off 16  fileH  uint64
//	off 24  oldLoc uint64
//	off 32  newLoc uint64
//	off 40  locs   [nLocs]uint64
//	...     zero padding
//	tail 8  keyed checksum over area[:len-8]
const (
	recMagic   = "SJR1"
	recFixed   = 40
	recTagSize = 8
	// maxArea caps the sealed prefix: 256 bytes hold 25 addresses per
	// record and keep the per-append crypto a small fraction of a
	// block seal; smaller blocks use the whole data field.
	maxArea  = 256
	minSlots = 4 // smallest ring Open accepts
)

// be is the on-disk byte order.
var be = binary.BigEndian

// Sentinel errors.
var (
	ErrNoJournal = errors.New("journal: volume has no journal region")
	ErrRecordBig = errors.New("journal: record exceeds slot capacity")
)

// Journal is an open intent ring. All methods are safe for concurrent
// use; appends serialize internally (the ring is one stream).
type Journal struct {
	vol   *stegfs.Volume
	dev   blockdev.Device // the ring SubDevice
	seal  *sealer.Sealer  // over IVSize+area bytes
	key   sealer.Key      // tag key
	area  int             // plaintext record-area size
	slots uint64

	// tagState is the SHA-256 state after absorbing the tag key and
	// label, marshaled once so each append restores it instead of
	// re-keying an HMAC (the tag is truncated and key-prefixed, so
	// length extension buys an attacker nothing).
	tagState []byte

	mu      sync.Mutex
	seq     uint64     // next sequence number to assign
	images  [][]byte   // cached slot images: sealed prefix + static tail
	rec     Record     // the record being encoded (fill's argument)
	scratch []byte     // record-area scratch, one area per record of a slot run
	areas   [][]byte   // the scratch's areas, and
	dsts    [][]byte   // the sealed prefixes they go to, as SealMany takes them
	sumbuf  []byte     // tag scratch
	tagHash hash.Hash  // reusable SHA-256 for tags
	ivrng   *prng.PRNG // journal IV stream
	nextIV  func(iv []byte)
}

// Open attaches to the journal ring of vol, sealing records under
// key. It scans the ring once to find the current sequence horizon
// (so appends after a crash continue where the log left off) and to
// cache the slots' static tail bytes.
func Open(vol *stegfs.Volume, key sealer.Key) (*Journal, error) {
	region, err := vol.JournalRegion()
	if err != nil {
		return nil, ErrNoJournal
	}
	if region.NumBlocks() < minSlots {
		return nil, fmt.Errorf("journal: ring of %d slots too small", region.NumBlocks())
	}
	field := vol.BlockSize() - sealer.IVSize
	area := field
	if area > maxArea {
		area = maxArea
	}
	sealKey := sealer.DeriveKey(key[:], "journal-slot-seal")
	sl, err := sealer.New(sealKey, area+sealer.IVSize)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		vol:     vol,
		dev:     region,
		seal:    sl,
		key:     sealer.DeriveKey(key[:], "journal-slot-tag"),
		area:    area,
		slots:   region.NumBlocks(),
		sumbuf:  make([]byte, 0, sha256.Size),
		tagHash: sha256.New(),
	}
	h := sha256.New()
	h.Write(j.key[:])
	h.Write([]byte("journal-record"))
	j.tagState, err = h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	if _, err := j.scan(true); err != nil {
		return nil, err
	}
	// The IV stream is seeded from the key, the volume salt, the
	// resume point, and a digest of the ring's current slot prefixes.
	// The last ingredient matters: a torn append leaves its IV on disk
	// while the resume sequence number stays put, and a reopen seeded
	// from (key, salt, seq) alone would replay that exact IV onto the
	// same slot — an unchanged-IV/changed-ciphertext overwrite that
	// random fill cannot produce. Hashing what the slots actually hold
	// makes every reopen's stream diverge from what is already there.
	seedH := sha256.New()
	seedH.Write(key[:])
	seedH.Write(vol.Salt())
	var seqb [8]byte
	be.PutUint64(seqb[:], j.seq)
	seedH.Write(seqb[:])
	for _, img := range j.images {
		seedH.Write(img[:sealer.IVSize])
	}
	j.ivrng = prng.New(seedH.Sum(nil)).Child("journal-iv")
	j.nextIV = func(iv []byte) { j.ivrng.Read(iv) } //nolint:errcheck // prng reads cannot fail
	return j, nil
}

// tag computes the keyed 8-byte record tag on the append path by
// restoring the precomputed post-key hash state. Caller holds j.mu
// (reuses the hash and sum scratch).
func (j *Journal) tag(data []byte) uint64 {
	if u, ok := j.tagHash.(encoding.BinaryUnmarshaler); ok && u.UnmarshalBinary(j.tagState) == nil {
		j.tagHash.Write(data)
		j.sumbuf = j.tagHash.Sum(j.sumbuf[:0])
		return be.Uint64(j.sumbuf)
	}
	return j.tagOf(data)
}

// Slots returns the ring capacity in records.
func (j *Journal) Slots() uint64 { return j.slots }

// EnableMetrics registers the ring's occupancy series with reg,
// sampled at scrape time (the gauges take j.mu briefly; the append
// path is untouched). Occupancy and sequence numbers mirror the slot
// writes an attacker already counts on the device — which slots hold
// live records vs noise stays invisible without the key, and no
// record content, address, or real-vs-filler split is exported.
func (j *Journal) EnableMetrics(reg *obs.Registry, volume string) {
	l := []string{"volume", volume}
	reg.GaugeFunc("steghide_journal_ring_slots",
		"journal ring capacity in records", func() float64 {
			return float64(j.slots)
		}, l...)
	reg.GaugeFunc("steghide_journal_ring_occupancy",
		"ring slots written at least once (saturates at capacity)",
		func() float64 {
			return float64(min(j.Seq(), j.slots))
		}, l...)
	reg.GaugeFunc("steghide_journal_seq",
		"sequence number the next journal append will use", func() float64 {
			return float64(j.Seq())
		}, l...)
}

// Seq returns the sequence number the next append will use.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// maxLocs returns how many addresses one record carries.
func (j *Journal) maxLocs() int { return (j.area - recFixed - recTagSize) / 8 }

// encode lays rec out as a plaintext record area. Caller holds j.mu.
func (j *Journal) encode(rec *Record, area []byte) error {
	if len(rec.Locs) > j.maxLocs() {
		return ErrRecordBig
	}
	clear(area)
	copy(area, recMagic)
	area[4] = byte(rec.Op)
	area[5] = byte(len(rec.Locs))
	be.PutUint64(area[8:], rec.Seq)
	be.PutUint64(area[16:], rec.FileH)
	be.PutUint64(area[24:], rec.OldLoc)
	be.PutUint64(area[32:], rec.NewLoc)
	for i, loc := range rec.Locs {
		be.PutUint64(area[recFixed+8*i:], loc)
	}
	// The tag covers the used bytes only (the padding is zeros by
	// construction and bounded by nLocs); writing it at the fixed tail
	// keeps the slot layout size-independent.
	be.PutUint64(area[j.area-recTagSize:], j.tag(area[:recFixed+8*len(rec.Locs)]))
	return nil
}

// tagOf recomputes the keyed tag without touching the append-path
// scratch (used by the lock-free decode during scans).
func (j *Journal) tagOf(data []byte) uint64 {
	h := sha256.New()
	h.Write(j.key[:])
	h.Write([]byte("journal-record"))
	h.Write(data)
	return be.Uint64(h.Sum(nil))
}

// decode parses one raw slot, returning nil when the slot holds no
// valid record (random fill, foreign key, or a torn write — the tag
// rejects all three alike).
func (j *Journal) decode(raw []byte) *Record {
	area := make([]byte, j.area)
	if err := j.seal.Open(area, raw[:sealer.IVSize+j.area]); err != nil {
		return nil
	}
	if string(area[:4]) != recMagic {
		return nil
	}
	op := Op(area[4])
	if op == 0 || op >= opMax {
		return nil
	}
	n := int(area[5])
	if n > j.maxLocs() {
		return nil
	}
	if be.Uint64(area[j.area-recTagSize:]) != j.tagOf(area[:recFixed+8*n]) {
		return nil
	}
	rec := &Record{
		Seq:    be.Uint64(area[8:]),
		Op:     op,
		FileH:  be.Uint64(area[16:]),
		OldLoc: be.Uint64(area[24:]),
		NewLoc: be.Uint64(area[32:]),
	}
	if n > 0 {
		rec.Locs = make([]uint64, n)
		for i := range rec.Locs {
			rec.Locs[i] = be.Uint64(area[recFixed+8*i:])
		}
	}
	return rec
}

// scan reads the whole ring and returns the valid records in sequence
// order. With init it also caches the slot images (whose bytes past
// the sealed prefix are the static cover every overwrite preserves)
// and the sequence horizon. A record whose slot disagrees with its
// sequence number is a leftover from before a reformat and is dropped.
func (j *Journal) scan(init bool) ([]Record, error) {
	raws := blockdev.AllocBlocks(int(j.slots), j.vol.BlockSize())
	if err := blockdev.ReadBlocks(j.dev, 0, raws); err != nil {
		return nil, err
	}
	var recs []Record
	maxSeq := uint64(0)
	for i, raw := range raws {
		rec := j.decode(raw)
		if rec == nil {
			continue
		}
		if (rec.Seq-1)%j.slots != uint64(i) {
			continue
		}
		recs = append(recs, *rec)
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	if init {
		j.mu.Lock()
		j.images = raws
		j.seq = maxSeq + 1
		j.mu.Unlock()
	}
	return recs, nil
}

// Scan returns every valid record currently in the ring, oldest
// first. Slots overwritten by the ring's wrap are gone — the ring
// must be sized so it outlives the window between state snapshots.
func (j *Journal) Scan() ([]Record, error) { return j.scan(false) }

// AppendBatch appends n records as one batch: fill(i, rec) supplies
// record i (its sequence number is assigned here), each contiguous run
// of ring slots is encoded, sealed through the journal sealer's lanes
// with IVs drawn in record order, and written in one device call — so a
// batch leaves exactly the ring bytes n single appends would, in O(1)
// ring round trips. It is durable when it returns; on an error the
// runs already written stay appended. fill runs under the journal's
// append lock and must not call back into the journal.
func (j *Journal) AppendBatch(n int, fill func(i int, rec *Record)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for done := 0; done < n; {
		slot := (j.seq - 1) % j.slots
		run := int(min(uint64(n-done), j.slots-slot))
		if need := run * j.area; cap(j.scratch) < need {
			j.scratch = make([]byte, need)
		}
		j.areas, j.dsts = j.areas[:0], j.dsts[:0]
		for i := 0; i < run; i++ {
			j.rec = Record{}
			fill(done+i, &j.rec)
			j.rec.Seq = j.seq + uint64(i)
			area := j.scratch[i*j.area : (i+1)*j.area : (i+1)*j.area]
			if err := j.encode(&j.rec, area); err != nil {
				return err
			}
			// The sealed prefix of the cached slot image is rewritten,
			// the static tail is already in place.
			j.areas = append(j.areas, area)
			j.dsts = append(j.dsts, j.images[slot+uint64(i)][:sealer.IVSize+j.area])
		}
		if err := j.seal.SealMany(j.dsts, j.nextIV, j.areas); err != nil {
			return err
		}
		if err := blockdev.WriteBlocks(j.dev, slot, j.images[slot:slot+uint64(run)]); err != nil {
			return err
		}
		j.seq += uint64(run)
		done += run
	}
	return nil
}

// append seals rec (assigning its sequence number) and overwrites its
// ring slot: the batch of one.
func (j *Journal) append(rec Record) error {
	return j.AppendBatch(1, func(_ int, r *Record) { *r = rec })
}

// AppendReloc durably records the intent "fileH's data at oldLoc
// moves to newLoc". Call before the payload write.
func (j *Journal) AppendReloc(fileH, oldLoc, newLoc uint64) error {
	return j.append(Record{Op: OpReloc, FileH: fileH, OldLoc: oldLoc, NewLoc: newLoc})
}

// AppendAlloc durably records that fileH acquired locs, splitting
// across slots when the list outgrows one record.
func (j *Journal) AppendAlloc(fileH uint64, locs []uint64) error {
	return j.appendList(OpAlloc, fileH, locs)
}

// AppendFree durably records that fileH gives up locs.
func (j *Journal) AppendFree(fileH uint64, locs []uint64) error {
	return j.appendList(OpFree, fileH, locs)
}

func (j *Journal) appendList(op Op, fileH uint64, locs []uint64) error {
	for len(locs) > 0 {
		n := min(len(locs), j.maxLocs())
		if err := j.append(Record{Op: op, FileH: fileH, Locs: locs[:n]}); err != nil {
			return err
		}
		locs = locs[n:]
	}
	return nil
}

// AppendSave records that fileH's header save is durable.
func (j *Journal) AppendSave(fileH uint64) error {
	return j.append(Record{Op: OpSave, FileH: fileH})
}

// AppendCheckpoint records an external state snapshot.
func (j *Journal) AppendCheckpoint() error {
	return j.append(Record{Op: OpCheckpoint})
}

// AppendDummy emits one filler record.
func (j *Journal) AppendDummy() error {
	return j.append(Record{Op: OpDummy})
}

// AppendDummies emits n filler records as one batch — the companion of
// the agents' burst paths, so a dummy burst costs O(1) ring round trips,
// not n.
func (j *Journal) AppendDummies(n int) error {
	return j.AppendBatch(n, func(_ int, r *Record) { r.Op = OpDummy })
}
