package steghide

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// The crash-matrix property tests: run a deterministic mixed
// real/dummy workload, power-cut the device at every single write
// index, recover, and assert that
//
//   - every file committed (saved) before the cut reads back intact:
//     each block holds one of the values legitimately written to it,
//     and the durable size is one a landed header could carry;
//   - the partition state matches the disk: Construction 1's bitmap
//     equals exactly the union of all surviving files' referenced
//     sets, and Construction 2's disclosed dummy maps never claim a
//     live data block (verified both structurally and by hammering
//     dummy traffic at the recovered volume and re-reading);
//   - the recovered agent is fully operational.
//
// A separate sweep repeats the matrix with a torn final block: the
// only admissible damage is the fatal write's own target block, and
// it must never be silent (open fails or the block is exempted).

// crashTrack records, per file, every durably-acceptable state.
type crashTrack struct {
	ps    uint64
	files map[string]*fileTrack
}

type fileTrack struct {
	allowed   map[uint64][][]byte // logical block → acceptable payloads
	mirror    map[uint64][]byte   // latest written payload
	sizes     map[uint64]bool     // acceptable durable sizes
	curSize   uint64
	mayMiss   bool // created or deleted inside the crash window
	deleteRan bool // Delete returned success: must not open
}

func newCrashTrack(ps uint64) *crashTrack {
	return &crashTrack{ps: ps, files: map[string]*fileTrack{}}
}

func (c *crashTrack) file(path string) *fileTrack {
	ft, ok := c.files[path]
	if !ok {
		ft = &fileTrack{
			allowed: map[uint64][][]byte{},
			mirror:  map[uint64][]byte{},
			sizes:   map[uint64]bool{0: true},
		}
		c.files[path] = ft
	}
	return ft
}

// noteWrite records a full-block write attempt (acceptable whether or
// not it lands; growth blocks may also read back as zeros).
func (c *crashTrack) noteWrite(path string, li uint64, payload []byte) {
	ft := c.file(path)
	if _, written := ft.mirror[li]; !written {
		ft.allowed[li] = append(ft.allowed[li], make([]byte, c.ps))
	}
	ft.allowed[li] = append(ft.allowed[li], payload)
	ft.mirror[li] = payload
	if end := (li + 1) * c.ps; end > ft.curSize {
		ft.curSize = end
	}
}

// noteSyncAttempt: the header may land with the current size.
func (c *crashTrack) noteSyncAttempt(path string) { ft := c.file(path); ft.sizes[ft.curSize] = true }

// noteSyncOK: the save returned — earlier states are no longer
// reachable through the durable header.
func (c *crashTrack) noteSyncOK(path string) {
	ft := c.file(path)
	ft.sizes = map[uint64]bool{ft.curSize: true}
	for li, v := range ft.mirror {
		ft.allowed[li] = [][]byte{v}
	}
}

// payloadFor builds a deterministic full-block payload.
func payloadFor(ps uint64, path string, li uint64, tag int) []byte {
	return prng.New([]byte(fmt.Sprintf("%s|%d|%d", path, li, tag))).Bytes(int(ps))
}

func inAllowed(allowed [][]byte, got []byte) bool {
	for _, a := range allowed {
		if bytes.Equal(a, got) {
			return true
		}
	}
	return false
}

// runLo and runHi bound the logical blocks of /b that phaseB rewrites
// in one call — one scheduler batch, so the cut sweeps land on every
// ring write and every block write inside it.
const runLo, runHi = 4, 22

// eBlocks is the size of /e, the real file whose map has a
// double-indirect block: past the 19 direct slots and the 29 addresses
// of the single-indirect block of a 256-byte block.
const eBlocks = 52

// trackedBlocks tracks blocks [from, to) of path as written with tag
// and returns their payloads, for one write at from.
func trackedBlocks(tr *crashTrack, path string, from, to uint64, tag int) []byte {
	var data []byte
	for li := from; li < to; li++ {
		p := payloadFor(tr.ps, path, li, tag)
		tr.noteWrite(path, li, p)
		data = append(data, p...)
	}
	return data
}

// shrinkThenGrow is phaseB's life of /e: a shrink out of the double-
// indirect map and its save, then a growth back into one and its save —
// each save drawing fresh pointer blocks and superseding the old ones.
func shrinkThenGrow(tr *crashTrack, truncate func(size uint64) error,
	write func(data []byte, off uint64) error, save func() error) []func() error {
	const shrunk = 30
	return []func() error{
		func() error { tr.file("/e").curSize = shrunk * tr.ps; return truncate(shrunk * tr.ps) },
		save,
		func() error { return write(trackedBlocks(tr, "/e", shrunk, eBlocks+4, 6), shrunk*tr.ps) },
		save,
	}
}

// rewriteRun builds phaseB's multi-block write of /b: the run's blocks
// are tracked first, written through write in one call, and the device
// events of that call are kept in *events.
func rewriteRun(tr *crashTrack, col *blockdev.Collector, events *[]blockdev.Event,
	write func(data []byte, off uint64) error) func() error {
	return func() error {
		var data []byte
		for li := uint64(runLo); li < runHi; li++ {
			p := payloadFor(tr.ps, "/b", li, 3)
			tr.noteWrite("/b", li, p)
			data = append(data, p...)
		}
		mark := col.Len()
		err := write(data, runLo*tr.ps)
		*events = col.Events()[mark:]
		return err
	}
}

// checkIntentsPrecedePayloads asserts the batch's write-ahead order on
// the device trace of one multi-block write: the ring slots that hold
// one cell per stream element, every slot written before the first
// steg-space block, and every block read before the first is written —
// so whichever write a power cut interrupts, the ring already names
// both endpoints of every relocation the batch contains.
func checkIntentsPrecedePayloads(t *testing.T, events []blockdev.Event, vol *stegfs.Volume) {
	t.Helper()
	var slots, reads, writes int
	for _, e := range events {
		ring := e.Block < vol.FirstDataBlock()
		switch {
		case e.Op == blockdev.OpWrite && ring:
			if reads+writes > 0 {
				t.Fatalf("ring slot written after the batch's block I/O began (%d reads, %d writes in)", reads, writes)
			}
			slots += int(e.Span())
		case e.Op == blockdev.OpWrite:
			writes++
		case !ring:
			if writes > 0 {
				t.Fatal("a block read after the batch's first block write")
			}
			reads++
		}
	}
	// writes cells fill ⌈writes/k⌉ slots, one more when they straddle
	// a slot edge.
	k := vol.BlockSize() / journal.CellSize
	if min := (writes + k - 1) / k; writes < runHi-runLo || reads != writes || slots < min || slots > min+1 {
		t.Fatalf("%d-block run: %d slots, %d reads, %d writes; want one read and one write per stream element and their cells' slots",
			runHi-runLo, slots, reads, writes)
	}
}

// verifyTrackedFile checks one reopened file against its track.
// tornLoc (when torn) is the single block the cut may have corrupted.
func verifyTrackedFile(t *testing.T, path string, ft *fileTrack, f *stegfs.File,
	ps uint64, torn bool, tornLoc uint64) (refs []uint64) {
	t.Helper()
	if ft.deleteRan {
		t.Fatalf("cut=%s: deleted file %q still opens", t.Name(), path)
	}
	size := f.Size()
	if !ft.sizes[size] {
		t.Fatalf("%q: durable size %d not among acceptable %v", path, size, ft.sizes)
	}
	for li := uint64(0); li*ps < size; li++ {
		loc, err := f.BlockLoc(li)
		if err != nil {
			t.Fatalf("%q block %d: %v", path, li, err)
		}
		if torn && loc == tornLoc {
			continue // the torn block: damage is confined and located
		}
		got := make([]byte, ps)
		if err := f.ReadBlockAt(li, got); err != nil {
			t.Fatalf("%q block %d: %v", path, li, err)
		}
		if !inAllowed(ft.allowed[li], got) {
			t.Fatalf("%q block %d (loc %d) holds none of its %d acceptable values",
				path, li, loc, len(ft.allowed[li]))
		}
	}
	refs = append(refs, f.HeaderLoc())
	refs = append(refs, f.BlockLocs()...)
	refs = append(refs, f.IndirectLocs()...)
	return refs
}

// --- Construction 1 ---------------------------------------------------

const (
	crashBS = 256
	// The ring must cover every intent since the oldest stale dummy-map
	// save (see DESIGN.md "Sizing the ring"); the test workloads append
	// 280 (C1) and 380 (C2) records end to end.
	crashJournal = 384
	crashSteg    = 256
	crashNBlocks = 1 + crashJournal + crashSteg
)

var c1CrashSecret = []byte("crash-c1-secret")

type c1CrashRig struct {
	mem   *blockdev.Mem
	col   *blockdev.Collector
	batch []blockdev.Event // device events of phaseB's multi-block write
	fd    *blockdev.FaultDevice
	vol   *stegfs.Volume
	agent *NonVolatileAgent
	state []byte
	track *crashTrack
	hdrs  map[string]uint64
	files map[string]*stegfs.File // the handles Create returned
}

// setupC1Crash formats, journals, creates the initial committed files
// and takes the external bitmap snapshot — all before the cut window.
func setupC1Crash(t *testing.T) *c1CrashRig {
	t.Helper()
	mem := blockdev.NewMem(crashBS, crashNBlocks)
	col := &blockdev.Collector{}
	fd := blockdev.NewFault(blockdev.NewTraced(mem, col))
	vol, err := stegfs.Format(fd, stegfs.FormatOptions{
		KDFIterations: 2, FillSeed: []byte("crash-c1"), JournalBlocks: crashJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewNonVolatile(vol, c1CrashSecret, prng.NewFromUint64(41))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	rig := &c1CrashRig{
		mem: mem, col: col, fd: fd, vol: vol, agent: agent,
		track: newCrashTrack(uint64(vol.PayloadSize())),
		hdrs:  map[string]uint64{},
		files: map[string]*stegfs.File{},
	}
	ctx := context.Background()
	for _, init := range []struct {
		path   string
		blocks uint64
	}{{"/a", 3}, {"/b", 4}, {"/c", 2}, {"/e", eBlocks}} {
		f, err := agent.Create("alice", init.path)
		if err != nil {
			t.Fatal(err)
		}
		rig.hdrs[init.path] = f.HeaderLoc()
		rig.files[init.path] = f
		if err := agent.Write(ctx, init.path, f, trackedBlocks(rig.track, init.path, 0, init.blocks, 0), 0); err != nil {
			t.Fatal(err)
		}
		rig.track.noteSyncAttempt(init.path)
		if err := agent.Sync(ctx, init.path, f); err != nil {
			t.Fatal(err)
		}
		rig.track.noteSyncOK(init.path)
	}
	state, err := agent.State()
	if err != nil {
		t.Fatal(err)
	}
	rig.state = state
	return rig
}

// phaseB runs the crash-window workload, stopping at the first error
// (the power cut). Every state transition is tracked first, so the
// cut can land inside any operation.
func (rig *c1CrashRig) phaseB() error {
	a, tr := rig.agent, rig.track
	ps := tr.ps
	ctx := context.Background()
	step := func(fn func() error) error { return fn() }
	write := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return a.Write(ctx, path, rig.files[path], p, li*ps)
		}
	}
	sync := func(path string) func() error {
		return func() error {
			tr.noteSyncAttempt(path)
			if err := a.Sync(ctx, path, rig.files[path]); err != nil {
				return err
			}
			tr.noteSyncOK(path)
			return nil
		}
	}
	stage := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return a.Stage(ctx, path, rig.files[path], p, li*ps)
		}
	}
	ops := []func() error{
		// Rewrite committed blocks (relocations + in-place).
		write("/a", 0, 1), write("/a", 1, 1), write("/a", 2, 1),
		sync("/a"),
		func() error { _, err := a.DummyUpdateBurst(1); return err },
		write("/b", 1, 1), write("/b", 3, 1),
		func() error { _, err := a.DummyUpdateBurst(8); return err },
		sync("/b"),
		// Create a new file inside the window.
		func() error {
			tr.file("/d").mayMiss = true
			f, err := a.Create("alice", "/d")
			if err != nil {
				return err
			}
			rig.hdrs["/d"] = f.HeaderLoc()
			rig.files["/d"] = f
			return nil
		},
		write("/d", 0, 0), write("/d", 1, 0),
		sync("/d"),
		// Grow /b past the direct slots so Save allocates an indirect
		// block inside the window.
		func() error {
			for li := uint64(4); li < 22; li++ {
				p := payloadFor(ps, "/b", li, 2)
				tr.noteWrite("/b", li, p)
				if err := a.Write(ctx, "/b", rig.files["/b"], p, li*ps); err != nil {
					return err
				}
			}
			return nil
		},
		sync("/b"),
		// Write-behind: handle writes wait in their files' open runs
		// (block 9 twice — the second wins) and reach the device in the
		// syncs, each one run then the save; the cuts land on every
		// write of both.
		stage("/b", 2, 4), stage("/b", 9, 4), stage("/a", 1, 4), stage("/b", 17, 4), stage("/b", 9, 5),
		sync("/b"), sync("/a"),
		rewriteRun(tr, rig.col, &rig.batch, func(data []byte, off uint64) error {
			return a.Write(ctx, "/b", rig.files["/b"], data, off)
		}),
		sync("/b"),
	}
	ops = append(ops, shrinkThenGrow(tr,
		func(size uint64) error { return a.Truncate(ctx, "/e", rig.files["/e"], size) },
		func(data []byte, off uint64) error { return a.Write(ctx, "/e", rig.files["/e"], data, off) },
		sync("/e"))...)
	ops = append(ops,
		func() error { _, err := a.DummyUpdateBurst(1); return err },
		write("/a", 1, 2),
		// Delete /c inside the window.
		func() error {
			tr.file("/c").mayMiss = true
			f := rig.files["/c"]
			if err := a.Close("/c", f); err != nil {
				return err
			}
			if err := f.Delete(); err != nil {
				return err
			}
			tr.file("/c").deleteRan = true
			return nil
		},
		func() error { _, err := a.DummyUpdateBurst(8); return err },
		write("/a", 0, 3),
		sync("/a"),
	)
	for _, op := range ops {
		if err := step(op); err != nil {
			return err
		}
	}
	return nil
}

// verifyC1Crash reboots, recovers, and checks every guarantee.
func verifyC1Crash(t *testing.T, rig *c1CrashRig, torn bool) {
	t.Helper()
	rig.fd.Heal()
	tornLoc, tornValid := rig.fd.CutBlock()
	vol, err := stegfs.Open(rig.fd, prng.NewFromUint64(98))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewNonVolatile(vol, c1CrashSecret, prng.NewFromUint64(97))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	if err := agent.LoadState(rig.state); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Recover(); err != nil {
		t.Fatal(err)
	}

	// Content: every tracked file, via an independent handle so the
	// agent's recovered bitmap stays unperturbed for the comparison.
	referenced := map[uint64]bool{}
	opened := map[string]bool{}
	for path, ft := range rig.track.files {
		scratch := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
		f, err := stegfs.OpenFile(vol, agent.fileFAK("alice", path), path, scratch)
		if err != nil {
			switch {
			case errors.Is(err, stegfs.ErrNotFound) && (ft.mayMiss || ft.deleteRan):
			case torn && tornValid && errors.Is(err, stegfs.ErrNotFound) && rig.hdrs[path] == tornLoc:
				// torn header: the loss is located, not silent
			case torn && errors.Is(err, stegfs.ErrCorrupt):
				// torn pointer block: detected, not silent
			default:
				t.Fatalf("%q failed to open after recovery: %v", path, err)
			}
			continue
		}
		opened[path] = true
		for _, loc := range verifyTrackedFile(t, path, ft, f, rig.track.ps, torn && tornValid, tornLoc) {
			referenced[loc] = true
		}
	}

	// Partition: the recovered bitmap must equal the union of the
	// surviving files' referenced sets (exact in the atomic-write
	// model; a torn block can have detached a whole file).
	if !torn {
		src := agent.Source()
		for loc := vol.FirstDataBlock(); loc < vol.NumBlocks(); loc++ {
			used := !src.IsFree(loc)
			if used != referenced[loc] {
				t.Fatalf("bitmap disagrees with disk at block %d: used=%v referenced=%v",
					loc, used, referenced[loc])
			}
		}
	}

	// Operability: the recovered agent serves traffic, exercised on a
	// file the crash left reachable (a torn header can legitimately
	// have taken one file with it — a located, detected loss).
	for i := 0; i < 8; i++ {
		if _, err := agent.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/a", "/b", "/d"} {
		if !opened[path] {
			continue
		}
		f, err := agent.Open("alice", path)
		if err != nil {
			t.Fatalf("reopen %q through the agent: %v", path, err)
		}
		ctx := context.Background()
		ps := rig.track.ps
		p := payloadFor(ps, path, 0, 99)
		if err := agent.Write(ctx, path, f, p, 0); err != nil {
			t.Fatal(err)
		}
		if err := agent.Sync(ctx, path, f); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ps)
		if _, err := agent.Read(path, f, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatal("post-recovery write did not read back")
		}
		break
	}
}

func TestC1CrashMatrix(t *testing.T) {
	// Reference run: no cut, learn the write count, and verify that
	// recovery after a clean run is a no-op.
	ref := setupC1Crash(t)
	base := ref.fd.Writes()
	if err := ref.phaseB(); err != nil {
		t.Fatal(err)
	}
	total := ref.fd.Writes() - base
	checkIntentsPrecedePayloads(t, ref.batch, ref.vol)
	verifyC1Crash(t, ref, false)

	for k := int64(0); k < total; k++ {
		rig := setupC1Crash(t)
		rig.fd.PowerCutAfterWrites(k)
		if err := rig.phaseB(); err == nil {
			t.Fatalf("cut at %d did not interrupt the workload", k)
		}
		verifyC1Crash(t, rig, false)
	}
	t.Logf("C1 crash matrix: %d write indices", total)
}

func TestC1CrashMatrixTornWrites(t *testing.T) {
	ref := setupC1Crash(t)
	base := ref.fd.Writes()
	if err := ref.phaseB(); err != nil {
		t.Fatal(err)
	}
	total := ref.fd.Writes() - base

	for k := int64(0); k < total; k += 3 {
		rig := setupC1Crash(t)
		rig.fd.PowerCutTorn(k, 0.55)
		if err := rig.phaseB(); err == nil {
			t.Fatalf("torn cut at %d did not interrupt the workload", k)
		}
		verifyC1Crash(t, rig, true)
	}
}

// --- Construction 2 ---------------------------------------------------

type c2CrashRig struct {
	mem   *blockdev.Mem
	col   *blockdev.Collector
	batch []blockdev.Event // device events of phaseB's multi-block write
	fd    *blockdev.FaultDevice
	vol   *stegfs.Volume
	agent *VolatileAgent
	sess  *Session
	track *crashTrack
}

const c2AdminPass = "crash-c2-admin"

// setupC2Crash formats, journals, and commits the initial disclosed
// state: one dummy file for cover and two saved real files.
func setupC2Crash(t *testing.T) *c2CrashRig {
	ctx := context.Background()
	t.Helper()
	mem := blockdev.NewMem(crashBS, crashNBlocks)
	col := &blockdev.Collector{}
	fd := blockdev.NewFault(blockdev.NewTraced(mem, col))
	vol, err := stegfs.Format(fd, stegfs.FormatOptions{
		KDFIterations: 2, FillSeed: []byte("crash-c2"), JournalBlocks: crashJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent := NewVolatile(vol, prng.NewFromUint64(43))
	if err := agent.EnableJournal(JournalKey(vol, c2AdminPass)); err != nil {
		t.Fatal(err)
	}
	sess, err := agent.Login("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}
	rig := &c2CrashRig{
		mem: mem, col: col, fd: fd, vol: vol, agent: agent, sess: sess,
		track: newCrashTrack(uint64(vol.PayloadSize())),
	}
	// Limbo parks every vacated block until its file's next save, so
	// the cover must outsize the real files and the longest save-free
	// run of updates.
	if _, err := sess.CreateDummy("/cover", 192); err != nil {
		t.Fatal(err)
	}
	for _, init := range []struct {
		path   string
		blocks uint64
	}{{"/a", 3}, {"/b", 4}, {"/e", eBlocks}} {
		if _, err := sess.Create(init.path); err != nil {
			t.Fatal(err)
		}
		if err := sess.Write(ctx, init.path, trackedBlocks(rig.track, init.path, 0, init.blocks, 0), 0); err != nil {
			t.Fatal(err)
		}
		rig.track.noteSyncAttempt(init.path)
		if err := sess.Save(ctx, init.path); err != nil {
			t.Fatal(err)
		}
		rig.track.noteSyncOK(init.path)
	}
	// Bring the cover's durable map up to date with the donations the
	// file creations took from it.
	if err := sess.Save(ctx, "/cover"); err != nil {
		t.Fatal(err)
	}
	return rig
}

// phaseB runs the crash-window workload, stopping at the first error.
func (rig *c2CrashRig) phaseB() error {
	ctx := context.Background()
	sess, a, tr := rig.sess, rig.agent, rig.track
	ps := tr.ps
	write := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return sess.Write(ctx, path, p, li*ps)
		}
	}
	save := func(path string) func() error {
		return func() error {
			tr.noteSyncAttempt(path)
			if err := sess.Save(ctx, path); err != nil {
				return err
			}
			tr.noteSyncOK(path)
			return nil
		}
	}
	stage := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return sess.Stage(ctx, path, p, li*ps)
		}
	}
	ops := []func() error{
		write("/a", 0, 1), write("/a", 2, 1),
		save("/a"),
		func() error { _, err := a.DummyUpdateBurst(1); return err },
		write("/b", 1, 1),
		func() error { _, err := a.DummyUpdateBurst(8); return err },
		save("/b"),
		func() error {
			tr.file("/c").mayMiss = true
			_, err := sess.Create("/c")
			return err
		},
		write("/c", 0, 0), write("/c", 1, 0),
		save("/c"),
		// Grow /b past the direct slots: allocation draws from the
		// cover's dummy blocks and Save allocates an indirect block.
		func() error {
			for li := uint64(4); li < 22; li++ {
				p := payloadFor(ps, "/b", li, 2)
				tr.noteWrite("/b", li, p)
				if err := sess.Write(ctx, "/b", p, li*ps); err != nil {
					return err
				}
			}
			return nil
		},
		save("/b"),
		// Write-behind, as in the Construction-1 matrix: staged handle
		// writes, then the saves that issue them.
		stage("/b", 2, 4), stage("/b", 9, 4), stage("/a", 1, 4), stage("/b", 17, 4), stage("/b", 9, 5),
		save("/b"), save("/a"),
		rewriteRun(tr, rig.col, &rig.batch, func(data []byte, off uint64) error { return sess.Write(ctx, "/b", data, off) }),
		save("/b"),
	}
	ops = append(ops, shrinkThenGrow(tr,
		func(size uint64) error { return sess.Truncate(ctx, "/e", size) },
		func(data []byte, off uint64) error { return sess.Write(ctx, "/e", data, off) },
		save("/e"))...)
	ops = append(ops,
		// Refresh the cover's durable map mid-window.
		func() error { return sess.Save(ctx, "/cover") },
		func() error { _, err := a.DummyUpdateBurst(1); return err },
		write("/a", 1, 2),
		// Delete /c: its blocks are donated back to the cover.
		func() error {
			tr.file("/c").mayMiss = true
			if err := sess.Delete("/c"); err != nil {
				return err
			}
			tr.file("/c").deleteRan = true
			return nil
		},
		func() error { _, err := a.DummyUpdateBurst(8); return err },
		write("/a", 0, 3),
		save("/a"),
	)
	for _, op := range ops {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// verifyC2Crash reboots, recovers, rediscloses in the given order,
// and checks content, dummy-map hygiene, refill-safety and
// operability.
func verifyC2Crash(t *testing.T, rig *c2CrashRig, coverFirst bool) {
	ctx := context.Background()
	t.Helper()
	rig.fd.Heal()
	vol, err := stegfs.Open(rig.fd, prng.NewFromUint64(98))
	if err != nil {
		t.Fatal(err)
	}
	agent := NewVolatile(vol, prng.NewFromUint64(99))
	if err := agent.EnableJournal(JournalKey(vol, c2AdminPass)); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Recover(); err != nil {
		t.Fatal(err)
	}
	sess, err := agent.Login("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}

	order := []string{"/cover", "/a", "/b", "/c", "/e"}
	if !coverFirst {
		order = []string{"/a", "/b", "/c", "/e", "/cover"}
	}
	files := map[string]*stegfs.File{}
	var cover *stegfs.File
	for _, path := range order {
		f, err := sess.Disclose(path)
		if err != nil {
			ft := rig.track.files[path]
			if errors.Is(err, stegfs.ErrNotFound) && (ft == nil || ft.mayMiss || ft.deleteRan) {
				continue
			}
			t.Fatalf("disclose %q (coverFirst=%v): %v", path, coverFirst, err)
		}
		if path == "/cover" {
			cover = f
			continue
		}
		files[path] = f
	}
	if cover == nil {
		t.Fatal("cover file failed to disclose")
	}

	// Content, and the union of live references.
	referenced := map[uint64]bool{}
	for path, f := range files {
		for _, loc := range verifyTrackedFile(t, path, rig.track.files[path], f, rig.track.ps, false, 0) {
			referenced[loc] = true
		}
	}

	// Hygiene: the disclosed dummy map must never claim a live block —
	// that claim is exactly what a post-crash refill would act on — nor
	// one block twice: the registry indexes one of the two, so a draw
	// that withdraws it leaves the other behind.
	claimed := map[uint64]bool{}
	for _, loc := range cover.BlockLocs() {
		if referenced[loc] {
			t.Fatalf("cover claims live data block %d (coverFirst=%v)", loc, coverFirst)
		}
		if claimed[loc] {
			t.Fatalf("cover claims block %d twice (coverFirst=%v)", loc, coverFirst)
		}
		claimed[loc] = true
	}

	// Refill-safety: hammer dummy traffic at the recovered volume,
	// then re-read everything. A wrong registry destroys data here.
	for i := 0; i < 40; i++ {
		if _, err := agent.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.DummyUpdateBurst(16); err != nil {
		t.Fatal(err)
	}
	for path, f := range files {
		ft := rig.track.files[path]
		for li := uint64(0); li*rig.track.ps < f.Size(); li++ {
			got := make([]byte, rig.track.ps)
			if err := f.ReadBlockAt(li, got); err != nil {
				t.Fatalf("%q block %d after dummy traffic: %v", path, li, err)
			}
			if !inAllowed(ft.allowed[li], got) {
				t.Fatalf("%q block %d destroyed by post-recovery dummy traffic", path, li)
			}
		}
	}

	// Operability: a fresh committed update round-trips.
	ps := rig.track.ps
	p := payloadFor(ps, "/a", 0, 99)
	if err := sess.Write(ctx, "/a", p, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Save(ctx, "/a"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if _, err := sess.Read("/a", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("post-recovery write did not read back")
	}
	if err := agent.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	// Fsck: with every recovered map saved by the logout, a key holder's
	// check of the volume finds each file whole and no block owned twice.
	report, err := stegfs.Check(vol, map[string][]string{"pw-alice": order})
	if err != nil || !report.Ok() {
		t.Fatalf("fsck after recovery (coverFirst=%v): %v, err=%v, corrupt=%v", coverFirst, report, err, report.Corrupt)
	}
}

func TestC2CrashMatrix(t *testing.T) {
	ref := setupC2Crash(t)
	base := ref.fd.Writes()
	if err := ref.phaseB(); err != nil {
		t.Fatal(err)
	}
	total := ref.fd.Writes() - base
	checkIntentsPrecedePayloads(t, ref.batch, ref.vol)
	verifyC2Crash(t, ref, true)

	for k := int64(0); k < total; k++ {
		rig := setupC2Crash(t)
		rig.fd.PowerCutAfterWrites(k)
		if err := rig.phaseB(); err == nil {
			// A cut index the workload never reaches lets it finish;
			// the finished run must verify too.
			verifyC2Crash(t, rig, k%2 == 0)
			continue
		}
		// Alternate the redisclosure order across cut points: both the
		// donor-first and the target-first resolution paths must hold.
		verifyC2Crash(t, rig, k%2 == 0)
	}
	t.Logf("C2 crash matrix: %d write indices", total)
}

// TestC2TornCoverClaimsNothingOffTheSpace: at every cut of the C2
// crash workload — the cover's saves and the saves of /e, whose maps
// shrink, included — the redisclosed cover opens, and its map and the
// agent's registry hold no block outside the steg space, so no dummy
// update can rewrite the superblock or a journal-ring slot. Saves are
// copy-on-write, so a torn save leaves the old header reading its own
// pointer blocks; when saves rewrote them in place, a cut between the
// two could leave it reading newer, shorter ones whose zero-padded
// tails name block 0.
func TestC2TornCoverClaimsNothingOffTheSpace(t *testing.T) {
	ref := setupC2Crash(t)
	base := ref.fd.Writes()
	if err := ref.phaseB(); err != nil {
		t.Fatal(err)
	}
	total := ref.fd.Writes() - base
	for k := int64(0); k < total; k++ {
		rig := setupC2Crash(t)
		rig.fd.PowerCutAfterWrites(k)
		_ = rig.phaseB()
		rig.fd.Heal()
		vol, err := stegfs.Open(rig.fd, prng.NewFromUint64(98))
		if err != nil {
			t.Fatal(err)
		}
		a := NewVolatile(vol, prng.NewFromUint64(99))
		if err := a.EnableJournal(JournalKey(vol, c2AdminPass)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recover(); err != nil {
			t.Fatal(err)
		}
		sess, err := a.Login("alice", "pw-alice")
		if err != nil {
			t.Fatal(err)
		}
		cover, err := sess.Disclose("/cover")
		if err != nil {
			t.Fatalf("cut %d: disclose the cover: %v", k, err)
		}
		for _, loc := range cover.BlockLocs() {
			if loc < vol.FirstDataBlock() {
				t.Fatalf("cut %d: the cover's map names block %d, below the steg space at %d", k, loc, vol.FirstDataBlock())
			}
		}
		for _, e := range a.list {
			if e.loc < vol.FirstDataBlock() {
				t.Fatalf("cut %d: the registry holds block %d, below the steg space at %d", k, e.loc, vol.FirstDataBlock())
			}
		}
	}
}

// TestStagedRunDiesWithThePower is the row the matrices cannot hold,
// since staging writes nothing for a cut to land on: handle writes that
// were never issued are gone after a power cut, and what recovery finds
// is exactly the last saved content — every guarantee of the matrices
// included. That is what a crash cost before write-behind too: a block
// written since the last save had moved, and only the lost map knew
// where.
func TestStagedRunDiesWithThePower(t *testing.T) {
	ctx := context.Background()
	t.Run("c1", func(t *testing.T) {
		rig := setupC1Crash(t)
		ps, before := rig.track.ps, rig.fd.Writes()
		for li := uint64(0); li < 3; li++ {
			if err := rig.agent.Stage(ctx, "/a", rig.files["/a"], payloadFor(ps, "/a", li, 7), li*ps); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, ps)
		if _, err := rig.agent.Read("/a", rig.files["/a"], got, ps); err != nil || !bytes.Equal(got, payloadFor(ps, "/a", 1, 7)) {
			t.Fatalf("the open handle does not read its own staged write (%v)", err)
		}
		if n := rig.fd.Writes() - before; n != 0 {
			t.Fatalf("staging wrote %d blocks", n)
		}
		verifyC1Crash(t, rig, false)
	})
	t.Run("c2", func(t *testing.T) {
		rig := setupC2Crash(t)
		ps, before := rig.track.ps, rig.fd.Writes()
		for li := uint64(0); li < 3; li++ {
			if err := rig.sess.Stage(ctx, "/a", payloadFor(ps, "/a", li, 7), li*ps); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, ps)
		if _, err := rig.sess.Read("/a", got, ps); err != nil || !bytes.Equal(got, payloadFor(ps, "/a", 1, 7)) {
			t.Fatalf("the session does not read its own staged write (%v)", err)
		}
		if n := rig.fd.Writes() - before; n != 0 {
			t.Fatalf("staging wrote %d blocks", n)
		}
		verifyC2Crash(t, rig, true)
	})
}

// TestC2RecoveryRefusesBlocksOffTheDevice: a ring record that names a
// block beyond the device — a committed relocation whose vacated source
// is off the end — must not reach the registry's address-indexed table
// (where it would index out of range) or a dummy file's map when the
// dummy that held the target is disclosed; the agent keeps serving.
func TestC2RecoveryRefusesBlocksOffTheDevice(t *testing.T) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(256, 1024), stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("sh-offdev"), JournalBlocks: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := JournalKey(vol, "admin")
	first := NewVolatile(vol, prng.NewFromUint64(41))
	if err := first.EnableJournal(key); err != nil {
		t.Fatal(err)
	}
	s, err := first.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.CreateDummy("/d", 40)
	if err != nil {
		t.Fatal(err)
	}
	target := d.BlockLocs()[0]
	if err := first.Logout(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	// The ring says some file relocated the block at vol.NumBlocks()+7
	// onto the dummy's first block and then saved.
	const head = 5
	if err := first.jc2.j.AppendReloc(head, vol.NumBlocks()+7, target); err != nil {
		t.Fatal(err)
	}
	if err := first.jc2.j.AppendSave(head); err != nil {
		t.Fatal(err)
	}

	a := NewVolatile(vol, prng.NewFromUint64(43))
	if err := a.EnableJournal(key); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	s, err = a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	d, err = s.Disclose("/d")
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range d.BlockLocs() {
		if loc >= vol.NumBlocks() {
			t.Fatalf("dummy map took block %d of a %d-block device", loc, vol.NumBlocks())
		}
	}
	for _, e := range a.list {
		if e.loc >= vol.NumBlocks() {
			t.Fatalf("registry holds block %d of a %d-block device", e.loc, vol.NumBlocks())
		}
	}
	// Fresh cover, so the session can write whatever recovery left of
	// the disclosed dummy.
	if _, err := s.CreateDummy("/d2", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "/f", make([]byte, 4*vol.PayloadSize()), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DummyUpdateBurst(16); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "u"); err != nil {
		t.Fatal(err)
	}
}

// TestC2RecoverKeepsADummysOwnBlocks: the ring's record of a dummy
// file's own creation proves its blocks live, but they are the dummy's
// own, so disclosing it after Recover keeps every one. Only a block
// another file's committed relocation took is stripped, and the move's
// vacated source is donated in its place.
func TestC2RecoverKeepsADummysOwnBlocks(t *testing.T) {
	for _, moved := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", moved), func(t *testing.T) {
			ctx := context.Background()
			vol, err := stegfs.Format(blockdev.NewMem(256, 1024), stegfs.FormatOptions{
				KDFIterations: 4, FillSeed: []byte("sh-own"), JournalBlocks: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			key := JournalKey(vol, "admin")
			first := NewVolatile(vol, prng.NewFromUint64(41))
			if err := first.EnableJournal(key); err != nil {
				t.Fatal(err)
			}
			s, err := first.Login("u", "pw")
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.CreateDummy("/d", 40)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]bool{}
			for _, loc := range d.BlockLocs() {
				want[loc] = true
			}
			if err := first.Logout(ctx, "u"); err != nil {
				t.Fatal(err)
			}
			if moved {
				// Some other file moved a free block onto the dummy's
				// first block and saved.
				target, src := d.BlockLocs()[0], vol.FirstDataBlock()
				for want[src] || src == d.HeaderLoc() {
					src++
				}
				const head = 5
				if err := first.jc2.j.AppendReloc(head, src, target); err != nil {
					t.Fatal(err)
				}
				if err := first.jc2.j.AppendSave(head); err != nil {
					t.Fatal(err)
				}
				delete(want, target)
				want[src] = true
			}

			a := NewVolatile(vol, prng.NewFromUint64(43))
			if err := a.EnableJournal(key); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Recover(); err != nil {
				t.Fatal(err)
			}
			s, err = a.Login("u", "pw")
			if err != nil {
				t.Fatal(err)
			}
			if d, err = s.Disclose("/d"); err != nil {
				t.Fatal(err)
			}
			got := d.BlockLocs()
			if len(got) != len(want) || a.DummyBlocks() != uint64(len(want)) {
				t.Fatalf("after Recover the dummy map holds %d blocks and the agent %d dummy blocks, want %d",
					len(got), a.DummyBlocks(), len(want))
			}
			for _, loc := range got {
				if !want[loc] {
					t.Fatalf("the dummy map holds block %d, which it did not own", loc)
				}
			}
			if err := a.Logout(ctx, "u"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
