package steghide

import (
	"steghide/internal/journal"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// c2Intents is Construction 2's journal adapter. Unlike C1 it keeps
// its maps under the agent's registry mutex (a.mu) — the vacate hook
// runs inside CommitRelocate, which already holds it — and its limbo
// entries remember the dummy file that donated each relocation
// target, because the vacated block is promised to that file once the
// move commits.
//
// The volatile construction's recovery is necessarily incremental:
// the agent boots with no file keys, so intents resolve when users
// disclose the files they name. Until then the blocks an unresolved
// intent touches are quarantined — registered as pending, stripped
// from any disclosed dummy file's stale map — so no refill,
// allocation, or donation can destroy what might be live data.
type c2Intents struct {
	a *VolatileAgent
	j *journal.Journal

	// owner and limbo are guarded by a.mu.
	owner map[uint64]uint64
	limbo map[uint64][]c2Vacated
}

// c2Vacated is one relocation's vacated block awaiting the owning
// file's durable save.
type c2Vacated struct {
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
	// data marks locations the ring alone proves hold live data: an
	// intent covered by a later save of its file is committed even if
	// that file is never disclosed this session.
	data map[uint64]bool
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

func (r *c2Recovery) empty() bool {
	return r == nil || (len(r.pending) == 0 && len(r.data) == 0)
}

// protects reports whether recovery still constrains loc: quarantined
// by an unresolved intent, or proven live by the ring.
func (r *c2Recovery) protects(loc uint64) bool {
	if r == nil {
		return false
	}
	return r.touch[loc] > 0 || r.data[loc]
}

// NoteOwner implements stegfs.IntentLog.
func (c *c2Intents) NoteOwner(loc, headerLoc uint64) {
	a := c.a
	a.mu.Lock()
	c.owner[loc] = headerLoc
	a.mu.Unlock()
}

// LogAlloc implements stegfs.IntentLog.
func (c *c2Intents) LogAlloc(headerLoc uint64, locs []uint64) error {
	a := c.a
	a.mu.Lock()
	for _, loc := range locs {
		c.owner[loc] = headerLoc
	}
	a.mu.Unlock()
	return c.j.AppendAlloc(headerLoc, locs)
}

// LogFree implements stegfs.IntentLog.
func (c *c2Intents) LogFree(headerLoc uint64, locs []uint64) error {
	a := c.a
	a.mu.Lock()
	for _, loc := range locs {
		delete(c.owner, loc)
	}
	a.mu.Unlock()
	return c.j.AppendFree(headerLoc, locs)
}

// LogSave implements stegfs.IntentLog: the header write is durable,
// so the file's vacated blocks finally join the dummy files they were
// promised to.
func (c *c2Intents) LogSave(headerLoc uint64) error {
	a := c.a
	a.mu.Lock()
	freed := c.limbo[headerLoc]
	delete(c.limbo, headerLoc)
	for _, v := range freed {
		// The donor must still be disclosed; a dummy file forgotten at
		// logout cannot durably claim the block, so it is abandoned
		// (conservative: unreachable cover, never data loss).
		if v.donor != nil && a.fileStillKnown(v.donor) {
			if err := v.donor.AppendBlockLoc(v.loc); err == nil {
				a.register(v.loc, ownerInfo{file: v.donor, user: v.user, dummy: true})
				continue
			}
		}
		a.unregister(v.loc)
	}
	a.mu.Unlock()
	return c.j.AppendSave(headerLoc)
}

// LogStream implements sched.IntentLog: one ring cell per stream
// element, the whole batch in one append. The owners are looked up
// before the append, so the journal's lock is never held across the
// registry's.
func (c *c2Intents) LogStream(from, to []uint64) error {
	a := c.a
	a.mu.Lock()
	heads := streamHeads(c.owner, from, to)
	a.mu.Unlock()
	return appendStream(c.j, heads, from, to)
}

// vacatedLocked is the CommitRelocate hook; the caller holds a.mu.
func (c *c2Intents) vacatedLocked(oldLoc, newLoc uint64, donor *stegfs.File, user string) {
	h := c.owner[oldLoc]
	delete(c.owner, oldLoc)
	c.owner[newLoc] = h
	c.limbo[h] = append(c.limbo[h], c2Vacated{loc: oldLoc, donor: donor, user: user})
}

// fileStillKnown reports whether f is still a disclosed file (its
// header registration points at it); the caller holds a.mu.
func (a *VolatileAgent) fileStillKnown(f *stegfs.File) bool {
	info, ok := a.known[f.HeaderLoc()]
	return ok && info.file == f
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
	a.jc2 = &c2Intents{a: a, j: j, owner: map[uint64]uint64{}, limbo: map[uint64][]c2Vacated{}}
	a.mu.Unlock()
	a.vol.SetIntentLog(a.jc2)
	a.sched.SetIntentLog(a.jc2)
	return nil
}

// Journaled reports whether EnableJournal has run.
func (a *VolatileAgent) Journaled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.jc2 != nil
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
		data:      map[uint64]bool{},
		dataReloc: map[uint64]uint64{},
		donors:    map[uint64]*stegfs.File{},
		donorUser: map[uint64]string{},
	}
	lastSave := map[uint64]uint64{}
	for _, r := range recs {
		if r.Op == journal.OpSave {
			lastSave[r.FileH] = r.Seq
		}
	}
	rep := &journal.Report{Records: len(recs)}
	for _, r := range recs {
		switch r.Op {
		case journal.OpReloc:
			if lastSave[r.FileH] > r.Seq {
				rec.data[r.NewLoc] = true
				delete(rec.data, r.OldLoc)
				rec.dataReloc[r.NewLoc] = r.OldLoc
				rep.RelocsCommitted++
			} else {
				rec.pending[r.FileH] = append(rec.pending[r.FileH], r)
				rec.touch[r.OldLoc]++
				rec.touch[r.NewLoc]++
				rep.Unresolved++
			}
		case journal.OpAlloc:
			if lastSave[r.FileH] > r.Seq {
				for _, loc := range r.Locs {
					rec.data[loc] = true
				}
			} else {
				rec.pending[r.FileH] = append(rec.pending[r.FileH], r)
				for _, loc := range r.Locs {
					rec.touch[loc]++
				}
				rep.Unresolved++
			}
		case journal.OpFree:
			if lastSave[r.FileH] > r.Seq {
				for _, loc := range r.Locs {
					delete(rec.data, loc)
				}
			} else {
				rec.pending[r.FileH] = append(rec.pending[r.FileH], r)
				for _, loc := range r.Locs {
					rec.touch[loc]++
				}
				rep.Unresolved++
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

	refs := map[uint64]bool{h: true}
	for _, loc := range f.BlockLocs() {
		refs[loc] = true
	}
	for _, loc := range f.IndirectLocs() {
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
		if donor != nil && a.fileStillKnown(donor) {
			if err := donor.AppendBlockLoc(loc); err == nil {
				a.register(loc, ownerInfo{file: donor, user: user, dummy: true})
				return
			}
		}
		if info, ok := a.known[loc]; ok && info.pending && info.file == nil {
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
	if old, ok := a.known[loc]; ok && old.file != nil && !old.file.IsDummy() {
		_ = f.RemoveBlockLoc(loc)
		return true
	}
	r := a.recov
	if r == nil {
		return false
	}
	if r.data[loc] {
		// Ring-proven live data of an undisclosed file: strip the stale
		// claim for good, park the block as pending, and donate the
		// committed relocation's vacated source to this dummy file in
		// exchange.
		_ = f.RemoveBlockLoc(loc)
		a.register(loc, ownerInfo{user: user, pending: true})
		if old, ok := r.dataReloc[loc]; ok {
			delete(r.dataReloc, loc)
			if _, known := a.known[old]; !known {
				if err := f.AppendBlockLoc(old); err == nil {
					a.register(old, ownerInfo{file: f, user: user, dummy: true})
				}
			}
		}
		return true
	}
	if r.touch[loc] > 0 {
		// Unresolved intent: quarantine until the file it names is
		// disclosed; remember the donor for reinstatement.
		_ = f.RemoveBlockLoc(loc)
		a.register(loc, ownerInfo{user: user, pending: true})
		if r.donors[loc] == nil {
			r.donors[loc] = f
			r.donorUser[loc] = user
		}
		return true
	}
	return false
}

// JournalKey derives a Construction 2 journal key from an
// administrator passphrase and the volume salt.
func JournalKey(vol *stegfs.Volume, passphrase string) sealer.Key {
	master := sealer.KeyFromPassphrase(passphrase, vol.Salt(), vol.KDFIterations())
	return sealer.DeriveKey(master[:], "steghide-c2-journal-key")
}
