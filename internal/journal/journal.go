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
//   - A slot is a row of fixed-size cells, one record each. Every
//     record is sealed under a journal key the agent derives from its
//     secret: a fixed-size CBC-encrypted record area with a fresh IV
//     and a keyed integrity tag. Ciphertext is indistinguishable from
//     the random fill; the tag is what separates "record" from "noise"
//     for the key holder, so cell occupancy itself is invisible
//     without the key.
//   - An append of n records changes exactly n cells, whatever the
//     records say; every other byte of the slots it rewrites goes back
//     to the disk as it was. A dummy filler and a relocation intent are
//     byte-for-byte indistinguishable in how they touch the disk, and
//     the snapshot attacker counts stream elements, never batches.
//   - The scheduler emits exactly one cell per element of the update
//     stream — real intents before relocations, dummy fillers for
//     dummy and camouflage updates — a batch at a time, so ring
//     traffic is a function of the stream's cadence and nothing else:
//     journaling changes throughput, never the observable address
//     distribution.
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
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
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
	// Seq is the record's position in the append order; its ring cell
	// is Seq-1 mod the ring's capacity.
	Seq uint64
	// Op says what the record intends.
	Op Op
	// FileH is the header location of the file the intent concerns
	// (zero for dummies and checkpoints).
	FileH uint64
	// OldLoc and NewLoc are the relocation endpoints (OpReloc only).
	OldLoc, NewLoc uint64
	// Locs are the blocks an OpAlloc/OpFree concerns, at most cellLocs
	// of them: a longer list is appended as consecutive records.
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

// A slot (one ring block) is a row of cells, each one sealed record:
// IV ‖ CBC(record area). A block size that is not a multiple of the
// cell size leaves a tail no append ever touches. The record area
// (plaintext, cellArea bytes):
//
//	off  0  magic  [4]byte "SJR2"
//	off  4  op     uint8
//	off  5  nLocs  uint8  (OpAlloc/OpFree: how many of a, b are addresses)
//	off  6  pad    uint16 (zero)
//	off  8  seq    uint64
//	off 16  fileH  uint64
//	off 24  a      uint64 (OpReloc: oldLoc; OpAlloc/OpFree: locs[0])
//	off 32  b      uint64 (OpReloc: newLoc; OpAlloc/OpFree: locs[1])
//	off 40  keyed checksum over area[:40]
//
// Every cell decodes on its own, so a torn slot write, or the ring's
// wrap into the middle of an address list, costs exactly the cells it
// hit and never the meaning of a neighbour.
const (
	recMagic   = "SJR2"
	recFixed   = 40
	recTagSize = 8
	cellArea   = recFixed + recTagSize
	// CellSize is the on-disk size of one record: a block of b bytes
	// holds b/CellSize of them.
	CellSize = sealer.IVSize + cellArea
	cellLocs = 2 // addresses one OpAlloc/OpFree cell carries
	minSlots = 4 // smallest ring Open accepts
)

// be is the on-disk byte order.
var be = binary.BigEndian

// Sentinel errors.
var (
	ErrNoJournal = errors.New("journal: volume has no journal region")
	ErrRecordBig = errors.New("journal: record exceeds cell capacity")
)

// Journal is an open intent ring. All methods are safe for concurrent
// use; appends serialize internally (the ring is one stream).
type Journal struct {
	vol    *stegfs.Volume
	dev    blockdev.Device // the ring SubDevice
	seal   *sealer.Sealer  // over one cell
	tagKey sealer.Key
	slots  uint64 // ring blocks
	k      uint64 // cells per slot

	mu      sync.Mutex
	seq     uint64     // next sequence number to assign
	images  [][]byte   // cached slot images: exactly what the ring holds
	rec     Record     // the record being encoded (fill's argument)
	scratch []byte     // record-area scratch, one area per record of a run
	areas   [][]byte   // the scratch's areas, and
	dsts    [][]byte   // the cells they are sealed into, as SealMany takes them
	tagger  *tagger    // the append path's tag state
	ivrng   *prng.PRNG // journal IV stream
	nextIV  func(iv []byte)
}

// Open attaches to the journal ring of vol, sealing records under
// key. It scans the ring once to find the current sequence horizon
// (so appends after a crash continue where the log left off) and to
// cache the slot images, and it converts a ring the one-record-per-slot
// format wrote (see upgrade).
func Open(vol *stegfs.Volume, key sealer.Key) (*Journal, error) {
	region, err := vol.JournalRegion()
	if err != nil {
		return nil, ErrNoJournal
	}
	if region.NumBlocks() < minSlots {
		return nil, fmt.Errorf("journal: ring of %d slots too small", region.NumBlocks())
	}
	sealKey := sealer.DeriveKey(key[:], "journal-slot-seal")
	sl, err := sealer.New(sealKey, CellSize)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		vol:    vol,
		dev:    region,
		seal:   sl,
		tagKey: sealer.DeriveKey(key[:], "journal-slot-tag"),
		slots:  region.NumBlocks(),
		k:      uint64(vol.BlockSize() / CellSize),
	}
	j.tagger = j.newTagger()
	if j.images, err = j.readRing(); err != nil {
		return nil, err
	}
	j.seq = 1
	if recs := j.decodeRing(j.images); len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq + 1
	}
	// The IV stream is seeded from the key, the volume salt, the
	// resume point, and a digest of the IV of every cell in the ring.
	// The last ingredient matters: a torn append leaves its IVs on disk
	// while the resume sequence number stays put, and a reopen seeded
	// from (key, salt, seq) alone would replay those exact IVs onto the
	// same cells — an unchanged-IV/changed-ciphertext overwrite that
	// random fill cannot produce. Hashing what the cells actually hold
	// makes every reopen's stream diverge from what is already there.
	seedH := sha256.New()
	seedH.Write(key[:])
	seedH.Write(vol.Salt())
	var seqb [8]byte
	be.PutUint64(seqb[:], j.seq)
	seedH.Write(seqb[:])
	for _, img := range j.images {
		for c := uint64(0); c < j.k; c++ {
			seedH.Write(img[c*CellSize:][:sealer.IVSize])
		}
	}
	j.ivrng = prng.New(seedH.Sum(nil)).Child("journal-iv")
	j.nextIV = func(iv []byte) { j.ivrng.Read(iv) } //nolint:errcheck // prng reads cannot fail
	if err := j.upgrade(sealKey); err != nil {
		return nil, err
	}
	return j, nil
}

// tagger computes the keyed 8-byte record tag: SHA-256 over tag key ‖
// label ‖ data, truncated (key-prefixed and truncated, so length
// extension buys an attacker nothing). Key and label together stay
// under one hash block, so absorbing them per tag is a copy; the hash
// and the digest buffer are reused. Not safe for concurrent use: the
// append path keeps one under j.mu, every scan makes its own.
type tagger struct {
	h      hash.Hash
	prefix []byte
	sum    []byte
}

func (j *Journal) newTagger() *tagger {
	return &tagger{
		h:      sha256.New(),
		prefix: append(j.tagKey[:len(j.tagKey):len(j.tagKey)], "journal-record"...),
		sum:    make([]byte, 0, sha256.Size),
	}
}

func (t *tagger) tag(data []byte) uint64 {
	t.h.Reset()
	t.h.Write(t.prefix)
	t.h.Write(data)
	t.sum = t.h.Sum(t.sum[:0])
	return be.Uint64(t.sum)
}

// Slots returns the number of ring blocks.
func (j *Journal) Slots() uint64 { return j.slots }

// Capacity returns how many records the ring holds before it wraps:
// Slots times the cells of one block.
func (j *Journal) Capacity() uint64 { return j.slots * j.k }

// EnableMetrics registers the ring's occupancy series with reg,
// sampled at scrape time (the gauges take j.mu briefly; the append
// path is untouched). Occupancy and sequence numbers mirror the cell
// writes an attacker already counts on the device — which cells hold
// live records vs noise stays invisible without the key, and no
// record content, address, or real-vs-filler split is exported.
func (j *Journal) EnableMetrics(reg *obs.Registry, volume string) {
	l := []string{"volume", volume}
	reg.GaugeFunc("steghide_journal_ring_slots",
		"journal ring capacity in records (ring blocks times cells per block)", func() float64 {
			return float64(j.Capacity())
		}, l...)
	reg.GaugeFunc("steghide_journal_ring_occupancy",
		"ring cells written at least once (saturates at capacity)",
		func() float64 {
			return float64(min(j.Seq()-1, j.Capacity()))
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

// cell returns cell c of the cached ring image.
func (j *Journal) cell(c uint64) []byte {
	off := (c % j.k) * CellSize
	return j.images[c/j.k][off : off+CellSize : off+CellSize]
}

// encode lays rec out as a plaintext record area. Caller holds j.mu.
func (j *Journal) encode(rec *Record, area []byte) error {
	a, b := rec.OldLoc, rec.NewLoc
	if len(rec.Locs) > 0 {
		if len(rec.Locs) > cellLocs {
			return ErrRecordBig
		}
		a, b = rec.Locs[0], 0
		if len(rec.Locs) > 1 {
			b = rec.Locs[1]
		}
	}
	copy(area, recMagic)
	area[4] = byte(rec.Op)
	area[5] = byte(len(rec.Locs))
	area[6], area[7] = 0, 0
	be.PutUint64(area[8:], rec.Seq)
	be.PutUint64(area[16:], rec.FileH)
	be.PutUint64(area[24:], a)
	be.PutUint64(area[32:], b)
	be.PutUint64(area[recFixed:], j.tagger.tag(area[:recFixed]))
	return nil
}

// decode parses one raw cell, reporting false when it holds no valid
// record (random fill, foreign key, or a torn write — the tag rejects
// all three alike). A cell of noise fails the magic, so a scan of an
// empty ring pays one three-block decrypt per cell and no hash.
func (j *Journal) decode(raw []byte, t *tagger, area []byte) (rec Record, ok bool) {
	if err := j.seal.Open(area, raw); err != nil || string(area[:4]) != recMagic {
		return rec, false
	}
	op, n := Op(area[4]), int(area[5])
	if op == 0 || op >= opMax || n > cellLocs || (n > 0 && op != OpAlloc && op != OpFree) {
		return rec, false
	}
	if be.Uint64(area[recFixed:]) != t.tag(area[:recFixed]) {
		return rec, false
	}
	rec = Record{Seq: be.Uint64(area[8:]), Op: op, FileH: be.Uint64(area[16:])}
	if op == OpAlloc || op == OpFree {
		rec.Locs = make([]uint64, n)
		for i := range rec.Locs {
			rec.Locs[i] = be.Uint64(area[24+8*i:])
		}
	} else {
		rec.OldLoc, rec.NewLoc = be.Uint64(area[24:]), be.Uint64(area[32:])
	}
	return rec, true
}

// readRing reads every slot of the ring.
func (j *Journal) readRing() ([][]byte, error) {
	raws := blockdev.AllocBlocks(int(j.slots), j.vol.BlockSize())
	if err := blockdev.ReadBlocks(j.dev, 0, raws); err != nil {
		return nil, err
	}
	return raws, nil
}

// decodeRing returns the valid records of the ring image raws in
// sequence order. Every cell is tried: no cell's failure hides another.
// A record whose cell disagrees with its sequence number is a leftover
// from before a reformat and is dropped.
func (j *Journal) decodeRing(raws [][]byte) []Record {
	var recs []Record
	t, area, capacity := j.newTagger(), make([]byte, cellArea), j.Capacity()
	for s, raw := range raws {
		for c := uint64(0); c < j.k; c++ {
			rec, ok := j.decode(raw[c*CellSize:][:CellSize], t, area)
			if ok && (rec.Seq-1)%capacity == uint64(s)*j.k+c {
				if recs == nil {
					recs = make([]Record, 0, capacity)
				}
				recs = append(recs, rec)
			}
		}
	}
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	return recs
}

// Scan returns every valid record currently in the ring, oldest
// first. Cells overwritten by the ring's wrap are gone — the ring
// must be sized so it outlives the window between state snapshots.
func (j *Journal) Scan() ([]Record, error) {
	raws, err := j.readRing()
	if err != nil {
		return nil, err
	}
	return j.decodeRing(raws), nil
}

// AppendBatch appends n records as one batch: fill(i, rec) supplies
// record i (its sequence number is assigned here), the records are
// encoded and sealed through the journal sealer's lanes into their
// cells of the cached slot images, IVs drawn in record order, and the
// ⌈n/k⌉ slots they touch (one more when the batch straddles a slot
// edge) go to the device in one call, two where the batch wraps the
// ring end. Every other cell of those slots is rewritten with the
// bytes it already holds, so a batch changes exactly the n cells n
// single appends would, and a torn write can damage only them. The
// batch is durable when the call returns; on an error the runs already
// written stay appended. fill runs under the journal's append lock and
// must not call back into the journal.
func (j *Journal) AppendBatch(n int, fill func(i int, rec *Record)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for done := 0; done < n; {
		first := (j.seq - 1) % j.Capacity()
		run := int(min(uint64(n-done), j.Capacity()-first))
		if need := run * cellArea; cap(j.scratch) < need {
			j.scratch = make([]byte, need)
		}
		j.areas, j.dsts = j.areas[:0], j.dsts[:0]
		for i := 0; i < run; i++ {
			j.rec = Record{}
			fill(done+i, &j.rec)
			j.rec.Seq = j.seq + uint64(i)
			area := j.scratch[i*cellArea : (i+1)*cellArea : (i+1)*cellArea]
			if err := j.encode(&j.rec, area); err != nil {
				return err
			}
			j.areas = append(j.areas, area)
			j.dsts = append(j.dsts, j.cell(first+uint64(i)))
		}
		if err := j.seal.SealMany(j.dsts, j.nextIV, j.areas); err != nil {
			return err
		}
		lo, hi := first/j.k, (first+uint64(run)-1)/j.k
		if err := blockdev.WriteBlocks(j.dev, lo, j.images[lo:hi+1]); err != nil {
			return err
		}
		j.seq += uint64(run)
		done += run
	}
	return nil
}

// append seals rec (assigning its sequence number) into its ring cell:
// the batch of one.
func (j *Journal) append(rec Record) error {
	return j.AppendBatch(1, func(_ int, r *Record) { *r = rec })
}

// AppendReloc durably records the intent "fileH's data at oldLoc
// moves to newLoc". Call before the payload write.
func (j *Journal) AppendReloc(fileH, oldLoc, newLoc uint64) error {
	return j.append(Record{Op: OpReloc, FileH: fileH, OldLoc: oldLoc, NewLoc: newLoc})
}

// AppendAlloc durably records that fileH acquired locs, as one batch of
// consecutive cells when the list outgrows one.
func (j *Journal) AppendAlloc(fileH uint64, locs []uint64) error {
	return j.appendList(OpAlloc, fileH, locs)
}

// AppendFree durably records that fileH gives up locs.
func (j *Journal) AppendFree(fileH uint64, locs []uint64) error {
	return j.appendList(OpFree, fileH, locs)
}

func (j *Journal) appendList(op Op, fileH uint64, locs []uint64) error {
	return j.AppendBatch(listCells(locs), func(i int, r *Record) {
		*r = Record{Op: op, FileH: fileH, Locs: listPart(locs, i)}
	})
}

// listCells returns how many cells an address list takes, and listPart
// the addresses its i-th cell carries.
func listCells(locs []uint64) int { return (len(locs) + cellLocs - 1) / cellLocs }

func listPart(locs []uint64, i int) []uint64 {
	return locs[i*cellLocs : min((i+1)*cellLocs, len(locs))]
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
