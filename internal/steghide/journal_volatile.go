package steghide

import (
	"steghide/internal/journal"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// c2Intents is Construction 2's journal adapter. Unlike C1 it keeps
// its limbo under the agent's registry mutex (a.mu) — the vacate hook
// runs inside the scheduler's Settle, which already holds it — and its
// limbo entries remember the dummy file that donated each relocation
// target, because the vacated block is promised to that file once the
// move commits. A relocation names the header its run carried, and
// that header's save drains its limbo.
//
// The volatile construction's recovery is necessarily incremental:
// the agent boots with no file keys, so intents resolve when users
// disclose the files they name. Until then the blocks an unresolved
// intent touches are quarantined — registered as pending, stripped
// from any disclosed dummy file's stale map — so no refill,
// allocation, or donation can destroy what might be live data.
type c2Intents struct {
	intentRing
	a *VolatileAgent

	// limbo holds every vacated block awaiting its file's save, in the
	// order the relocations committed; guarded by a.mu. It holds the
	// unsaved relocations of the files being written, so a save walks
	// a short list.
	limbo []c2Vacated
}

// c2Vacated is one relocation's vacated block awaiting the durable
// save of the file whose header is at head.
type c2Vacated struct {
	head  uint64
	loc   uint64
	donor *stegfs.File // dummy file owed the block
	user  string
}

// c2Recovery is the parsed ring, consumed as disclosures arrive.
type c2Recovery struct {
	// pending holds unresolved intents keyed by the header location
	// of the file whose disclosure will decide them.
	pending map[uint64][]journal.Record
	// touch counts unresolved intents per block location; a non-zero
	// count quarantines the location.
	touch map[uint64]int
	// data maps each location the ring alone proves holds live data to
	// the header of the file that owns it: an intent covered by a later
	// save of its file is committed even if that file is never
	// disclosed this session. A later committed relocation or free of
	// the location, in ring order, overrides the owner.
	data map[uint64]uint64
	// dataReloc maps a committed relocation's target to its vacated
	// source, so the source can be donated to whichever dummy file
	// turns out to hold the stale claim on the target.
	dataReloc map[uint64]uint64
	// donors remembers, per quarantined location, the disclosed dummy
	// file it was stripped from, for reinstatement if the intent
	// resolves to "cover".
	donors    map[uint64]*stegfs.File
	donorUser map[uint64]string
}

// protects reports whether recovery still constrains loc: quarantined
// by an unresolved intent, or proven live by the ring.
func (r *c2Recovery) protects(loc uint64) bool {
	if r == nil {
		return false
	}
	_, live := r.data[loc]
	return r.touch[loc] > 0 || live
}

// LogSave implements stegfs.IntentLog: the header write is durable,
// so the file's vacated blocks finally join the dummy files they were
// promised to.
func (c *c2Intents) LogSave(headerLoc uint64) error {
	c.a.mu.Lock()
	c.drainLocked(headerLoc)
	c.a.mu.Unlock()
	return c.j.AppendSave(headerLoc)
}

// drainLocked gives the vacated blocks in the limbo of the file whose
// header is at head to the dummy files they were promised to, in the
// order they were vacated. The caller holds a.mu.
func (c *c2Intents) drainLocked(head uint64) {
	a := c.a
	n := 0
	for _, v := range c.limbo {
		if v.head != head {
			c.limbo[n] = v
			n++
			continue
		}
		// The donor must still be disclosed; a dummy file forgotten at
		// logout cannot durably claim the block, so it is abandoned
		// (conservative: unreachable cover, never data loss).
		if v.donor == nil || !a.fileStillKnown(v.donor) || a.donate(v.donor, v.loc, v.user) != nil {
			a.unregister(v.loc)
		}
	}
	clear(c.limbo[n:])
	c.limbo = c.limbo[:n]
}

// vacatedLocked is the relocation commit's hook: oldLoc waits in the
// limbo of the file whose header is at head. The caller holds a.mu.
func (c *c2Intents) vacatedLocked(oldLoc, head uint64, donor *stegfs.File, user string) {
	c.limbo = append(c.limbo, c2Vacated{head: head, loc: oldLoc, donor: donor, user: user})
}

// fileStillKnown reports whether f is still a disclosed file (its
// header registration points at it); the caller holds a.mu.
func (a *VolatileAgent) fileStillKnown(f *stegfs.File) bool {
	e := a.lookup(f.HeaderLoc())
	return e != nil && e.file == f
}

// EnableJournal wires the volatile agent to the volume's journal
// ring. The key is the administrator's journal key: Construction 2
// keeps no persistent secrets, so durability across crashes needs one
// secret held outside the agent — disclosing it reveals the recent
// intent window (bounded by the ring size and scrubbed by wrap), and
// nothing about undisclosed files.
func (a *VolatileAgent) EnableJournal(key sealer.Key) error {
	j, err := journal.Open(a.vol, key)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.jc2 = &c2Intents{intentRing: intentRing{j}, a: a}
	a.mu.Unlock()
	a.vol.SetIntentLog(a.jc2)
	a.sched.SetIntentLog(a.jc2)
	return nil
}

// Recover scans the intent ring after a crash and arms the
// incremental resolution machinery: intents a later save already
// committed yield ring-proven verdicts at once (their targets are
// live data, whoever's stale dummy map still claims them); the rest
// quarantine the blocks they touch until the file they name is
// disclosed and its durable header decides them. Call after
// EnableJournal, before serving logins.
func (a *VolatileAgent) Recover() (*journal.Report, error) {
	a.structMu.Lock()
	defer a.structMu.Unlock()
	a.mu.Lock()
	jc := a.jc2
	a.mu.Unlock()
	if jc == nil {
		return nil, journal.ErrNoJournal
	}
	recs, err := jc.j.Scan()
	if err != nil {
		return nil, err
	}
	rec := &c2Recovery{
		pending:   map[uint64][]journal.Record{},
		touch:     map[uint64]int{},
		data:      map[uint64]uint64{},
		dataReloc: map[uint64]uint64{},
		donors:    map[uint64]*stegfs.File{},
		donorUser: map[uint64]string{},
	}
	covered := journal.Covered(recs)
	rep := &journal.Report{Records: len(recs)}
	for _, r := range recs {
		switch {
		case r.Op != journal.OpReloc && r.Op != journal.OpAlloc && r.Op != journal.OpFree:
			// Fillers, saves and checkpoints claim no block.
		case !covered(r):
			rec.pending[r.FileH] = append(rec.pending[r.FileH], r)
			for _, loc := range r.Touches() {
				rec.touch[loc]++
			}
			rep.Unresolved++
		case r.Op == journal.OpReloc:
			rec.data[r.NewLoc] = r.FileH
			delete(rec.data, r.OldLoc)
			rec.dataReloc[r.NewLoc] = r.OldLoc
			rep.RelocsCommitted++
		case r.Op == journal.OpAlloc:
			for _, loc := range r.Locs {
				rec.data[loc] = r.FileH
			}
		default: // OpFree
			for _, loc := range r.Locs {
				delete(rec.data, loc)
			}
		}
	}
	a.mu.Lock()
	a.recov = rec
	a.mu.Unlock()
	return rep, nil
}

// applyRecovery resolves every pending intent naming f against f's
// freshly disclosed block map. The caller holds structMu exclusively;
// registerFile(f) must already have run.
func (a *VolatileAgent) applyRecovery(f *stegfs.File) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.recov
	if r == nil {
		return
	}
	h := f.HeaderLoc()
	recs := r.pending[h]
	if len(recs) == 0 {
		return
	}
	delete(r.pending, h)

	refs := map[uint64]bool{}
	for _, loc := range f.Owned() {
		refs[loc] = true
	}

	resolve := func(loc uint64, used bool) {
		if r.touch[loc] > 0 {
			r.touch[loc]--
		}
		if r.touch[loc] > 0 {
			return // still quarantined by another unresolved intent
		}
		donor := r.donors[loc]
		delete(r.donors, loc)
		user := r.donorUser[loc]
		delete(r.donorUser, loc)
		if used {
			// Live data of f; registerFile already claimed it, and any
			// stale dummy claim was stripped at quarantine time.
			return
		}
		// Cover: reinstate the stripped donor's claim, or abandon.
		if donor != nil && a.fileStillKnown(donor) && a.donate(donor, loc, user) == nil {
			return
		}
		if e := a.lookup(loc); e != nil && e.pending && e.file == nil {
			a.unregister(loc)
		}
	}

	for _, rec := range recs {
		switch rec.Op {
		case journal.OpReloc:
			committed := refs[rec.NewLoc]
			// A committed move makes the vacated block cover owed to
			// whichever dummy file donated the target.
			if committed {
				if donor := r.donors[rec.NewLoc]; donor != nil && !refs[rec.OldLoc] {
					r.donors[rec.OldLoc] = donor
					r.donorUser[rec.OldLoc] = r.donorUser[rec.NewLoc]
				}
			}
			resolve(rec.NewLoc, committed)
			resolve(rec.OldLoc, refs[rec.OldLoc])
		default: // OpAlloc, OpFree: the durable map decides each block
			for _, loc := range rec.Locs {
				resolve(loc, refs[loc])
			}
		}
	}
}

// quarantineDummyLocked decides, under a.mu, what a freshly disclosed
// dummy file's claim on loc becomes. It returns true when the claim
// was diverted (stripped or quarantined) and the caller must not
// register it as a dummy block.
func (a *VolatileAgent) quarantineDummyLocked(f *stegfs.File, user string, loc uint64) bool {
	// A real file's live claim always beats a dummy file's stale disk
	// map (the real file's cached map is the freshest truth).
	if old := a.lookup(loc); old != nil && old.file != nil && !old.file.IsDummy() {
		strip(f, loc)
		return true
	}
	r := a.recov
	if r == nil {
		return false
	}
	if owner, live := r.data[loc]; live && owner != f.HeaderLoc() {
		// Ring-proven live data of another, undisclosed file: strip the
		// stale claim for good, park the block as pending, and donate
		// the committed relocation's vacated source to this dummy file
		// in exchange. The dummy's own allocation, which the ring
		// proves too, stays its own.
		strip(f, loc)
		a.register(loc, ownerInfo{user: user, pending: true})
		if old, ok := r.dataReloc[loc]; ok {
			delete(r.dataReloc, loc)
			if a.lookup(old) == nil && !r.protects(old) && blockIndex(f, old) < 0 {
				_ = a.donate(f, old, user)
			}
		}
		return true
	}
	if r.touch[loc] > 0 {
		// Unresolved intent: quarantine until the file it names is
		// disclosed; remember the donor for reinstatement.
		strip(f, loc)
		a.register(loc, ownerInfo{user: user, pending: true})
		if r.donors[loc] == nil {
			r.donors[loc] = f
			r.donorUser[loc] = user
		}
		return true
	}
	return false
}

// blockIndex finds loc in f's block map by a scan, or returns -1: the
// quarantine path's search, run only while a crash is being resolved
// and never on a draw.
func blockIndex(f *stegfs.File, loc uint64) int {
	for i := range f.NumBlocks() {
		if l, _ := f.BlockLoc(i); l == loc {
			return int(i)
		}
	}
	return -1
}

// strip takes loc out of a freshly disclosed dummy file's map, wherever
// it sits; registerFile indexes the map again afterwards.
func strip(f *stegfs.File, loc uint64) {
	if i := blockIndex(f, loc); i >= 0 {
		_, _ = f.RemoveBlockAt(i, loc)
	}
}

// JournalKey derives a Construction 2 journal key from an
// administrator passphrase and the volume salt.
func JournalKey(vol *stegfs.Volume, passphrase string) sealer.Key {
	master := sealer.KeyFromPassphrase(passphrase, vol.Salt(), vol.KDFIterations())
	return sealer.DeriveKey(master[:], "steghide-c2-journal-key")
}
