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
		got, err := f.ReadBlockAt(li)
		if err != nil {
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
	// ~230 records end to end.
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
	}
	ps := rig.track.ps
	for _, init := range []struct {
		path   string
		blocks uint64
	}{{"/a", 3}, {"/b", 4}, {"/c", 2}} {
		f, err := agent.Create("alice", init.path)
		if err != nil {
			t.Fatal(err)
		}
		rig.hdrs[init.path] = f.HeaderLoc()
		for li := uint64(0); li < init.blocks; li++ {
			p := payloadFor(ps, init.path, li, 0)
			if err := agent.Write(init.path, p, li*ps); err != nil {
				t.Fatal(err)
			}
			rig.track.noteWrite(init.path, li, p)
		}
		rig.track.noteSyncAttempt(init.path)
		if err := agent.Sync(init.path); err != nil {
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
	step := func(fn func() error) error { return fn() }
	write := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return a.Write(path, p, li*ps)
		}
	}
	sync := func(path string) func() error {
		return func() error {
			tr.noteSyncAttempt(path)
			if err := a.Sync(path); err != nil {
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
			return a.StageHandleCtx(context.Background(), path, nil, p, li*ps)
		}
	}
	ops := []func() error{
		// Rewrite committed blocks (relocations + in-place).
		write("/a", 0, 1), write("/a", 1, 1), write("/a", 2, 1),
		sync("/a"),
		func() error { return a.DummyUpdate() },
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
				if err := a.Write("/b", p, li*ps); err != nil {
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
		rewriteRun(tr, rig.col, &rig.batch, func(data []byte, off uint64) error { return a.Write("/b", data, off) }),
		sync("/b"),
		func() error { return a.DummyUpdate() },
		write("/a", 1, 2),
		// Delete /c inside the window.
		func() error {
			tr.file("/c").mayMiss = true
			h, err := a.handle("/c", nil)
			if err != nil {
				return err
			}
			if err := a.Close("/c"); err != nil {
				return err
			}
			if err := h.f.Delete(); err != nil {
				return err
			}
			tr.file("/c").deleteRan = true
			return nil
		},
		func() error { _, err := a.DummyUpdateBurst(8); return err },
		write("/a", 0, 3),
		sync("/a"),
	}
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
	vol, err := stegfs.Open(rig.fd)
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
		if err := agent.DummyUpdate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/a", "/b", "/d"} {
		if !opened[path] {
			continue
		}
		if _, err := agent.Open("alice", path); err != nil {
			t.Fatalf("reopen %q through the agent: %v", path, err)
		}
		ps := rig.track.ps
		p := payloadFor(ps, path, 0, 99)
		if err := agent.Write(path, p, 0); err != nil {
			t.Fatal(err)
		}
		if err := agent.Sync(path); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ps)
		if _, err := agent.Read(path, got, 0); err != nil {
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

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for k := int64(0); k < total; k += stride {
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

	stride := int64(3)
	if testing.Short() {
		stride = 11
	}
	for k := int64(0); k < total; k += stride {
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
	sess, err := agent.LoginWithPassphrase("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}
	rig := &c2CrashRig{
		mem: mem, col: col, fd: fd, vol: vol, agent: agent, sess: sess,
		track: newCrashTrack(uint64(vol.PayloadSize())),
	}
	ps := rig.track.ps
	// Limbo parks every vacated block until its file's next save, so
	// the cover must outsize the longest save-free run of updates.
	if _, err := sess.CreateDummy("/cover", 96); err != nil {
		t.Fatal(err)
	}
	for _, init := range []struct {
		path   string
		blocks uint64
	}{{"/a", 3}, {"/b", 4}} {
		if _, err := sess.Create(init.path); err != nil {
			t.Fatal(err)
		}
		for li := uint64(0); li < init.blocks; li++ {
			p := payloadFor(ps, init.path, li, 0)
			if err := sess.Write(init.path, p, li*ps); err != nil {
				t.Fatal(err)
			}
			rig.track.noteWrite(init.path, li, p)
		}
		rig.track.noteSyncAttempt(init.path)
		if err := sess.Save(init.path); err != nil {
			t.Fatal(err)
		}
		rig.track.noteSyncOK(init.path)
	}
	// Bring the cover's durable map up to date with the donations the
	// file creations took from it.
	if err := sess.Save("/cover"); err != nil {
		t.Fatal(err)
	}
	return rig
}

// phaseB runs the crash-window workload, stopping at the first error.
func (rig *c2CrashRig) phaseB() error {
	sess, a, tr := rig.sess, rig.agent, rig.track
	ps := tr.ps
	write := func(path string, li uint64, tag int) func() error {
		return func() error {
			p := payloadFor(ps, path, li, tag)
			tr.noteWrite(path, li, p)
			return sess.Write(path, p, li*ps)
		}
	}
	save := func(path string) func() error {
		return func() error {
			tr.noteSyncAttempt(path)
			if err := sess.Save(path); err != nil {
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
			return sess.StageCtx(context.Background(), path, p, li*ps)
		}
	}
	ops := []func() error{
		write("/a", 0, 1), write("/a", 2, 1),
		save("/a"),
		func() error { return a.DummyUpdate() },
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
				if err := sess.Write("/b", p, li*ps); err != nil {
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
		rewriteRun(tr, rig.col, &rig.batch, func(data []byte, off uint64) error { return sess.Write("/b", data, off) }),
		save("/b"),
		// Refresh the cover's durable map mid-window.
		func() error { return sess.Save("/cover") },
		func() error { return a.DummyUpdate() },
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
	}
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
	t.Helper()
	rig.fd.Heal()
	vol, err := stegfs.Open(rig.fd)
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
	sess, err := agent.LoginWithPassphrase("alice", "pw-alice")
	if err != nil {
		t.Fatal(err)
	}

	order := []string{"/cover", "/a", "/b", "/c"}
	if !coverFirst {
		order = []string{"/a", "/b", "/c", "/cover"}
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
	// that claim is exactly what a post-crash refill would act on.
	for _, loc := range cover.BlockLocs() {
		if referenced[loc] {
			t.Fatalf("cover claims live data block %d (coverFirst=%v)", loc, coverFirst)
		}
	}

	// Refill-safety: hammer dummy traffic at the recovered volume,
	// then re-read everything. A wrong registry destroys data here.
	for i := 0; i < 40; i++ {
		if err := agent.DummyUpdate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.DummyUpdateBurst(16); err != nil {
		t.Fatal(err)
	}
	for path, f := range files {
		ft := rig.track.files[path]
		for li := uint64(0); li*rig.track.ps < f.Size(); li++ {
			got, err := f.ReadBlockAt(li)
			if err != nil {
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
	if err := sess.Write("/a", p, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Save("/a"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if _, err := sess.Read("/a", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("post-recovery write did not read back")
	}
	if err := agent.Logout("alice"); err != nil {
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

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for k := int64(0); k < total; k += stride {
		rig := setupC2Crash(t)
		rig.fd.PowerCutAfterWrites(k)
		if err := rig.phaseB(); err == nil {
			// Registry map iteration makes per-run write counts vary
			// slightly; a tail index may outlive the workload.
			verifyC2Crash(t, rig, k%2 == 0)
			continue
		}
		// Alternate the redisclosure order across cut points: both the
		// donor-first and the target-first resolution paths must hold.
		verifyC2Crash(t, rig, k%2 == 0)
	}
	t.Logf("C2 crash matrix: %d write indices", total)
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
			if err := rig.agent.StageHandleCtx(ctx, "/a", nil, payloadFor(ps, "/a", li, 7), li*ps); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, ps)
		if _, err := rig.agent.Read("/a", got, ps); err != nil || !bytes.Equal(got, payloadFor(ps, "/a", 1, 7)) {
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
			if err := rig.sess.StageCtx(ctx, "/a", payloadFor(ps, "/a", li, 7), li*ps); err != nil {
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
