package steghide

import (
	"sync"

	"steghide/internal/journal"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// c1Intents is Construction 1's journal adapter: it implements both
// stegfs.IntentLog (file-layer hooks: allocation, free, save) and
// sched.IntentLog (the stream hook: relocation intents and fillers, a
// batch at a time), and owns the limbo of vacated blocks.
//
// Limbo is the runtime half of crash consistency: when a relocation
// commits in memory, the vacated block's old ciphertext is still what
// the on-disk header references, so the block must not rejoin the
// dummy pool — where a reallocation would overwrite it — until the
// owning file's header save makes the move durable. LogSave drains
// the file's limbo back to the bitmap.
type c1Intents struct {
	j      *journal.Journal
	source *stegfs.BitmapSource

	mu    sync.Mutex
	owner map[uint64]uint64   // data block → header of the owning file
	limbo map[uint64][]uint64 // header → vacated blocks awaiting its save
}

func newC1Intents(j *journal.Journal, source *stegfs.BitmapSource) *c1Intents {
	return &c1Intents{
		j:      j,
		source: source,
		owner:  map[uint64]uint64{},
		limbo:  map[uint64][]uint64{},
	}
}

// NoteOwner implements stegfs.IntentLog.
func (c *c1Intents) NoteOwner(loc, headerLoc uint64) {
	c.mu.Lock()
	c.owner[loc] = headerLoc
	c.mu.Unlock()
}

// LogAlloc implements stegfs.IntentLog.
func (c *c1Intents) LogAlloc(headerLoc uint64, locs []uint64) error {
	c.mu.Lock()
	for _, loc := range locs {
		c.owner[loc] = headerLoc
	}
	c.mu.Unlock()
	return c.j.AppendAlloc(headerLoc, locs)
}

// LogFree implements stegfs.IntentLog.
func (c *c1Intents) LogFree(headerLoc uint64, locs []uint64) error {
	c.mu.Lock()
	for _, loc := range locs {
		delete(c.owner, loc)
	}
	c.mu.Unlock()
	return c.j.AppendFree(headerLoc, locs)
}

// LogSave implements stegfs.IntentLog: the header write is durable,
// so the file's vacated blocks finally become dummies.
func (c *c1Intents) LogSave(headerLoc uint64) error {
	if err := c.j.AppendSave(headerLoc); err != nil {
		return err
	}
	c.mu.Lock()
	freed := c.limbo[headerLoc]
	delete(c.limbo, headerLoc)
	c.mu.Unlock()
	for _, loc := range freed {
		c.source.Release(loc)
	}
	return nil
}

// LogStream implements sched.IntentLog: one ring cell per stream
// element, the whole batch in one append. The owners are looked up
// before the append, so the journal's lock is never held across the
// adapter's.
func (c *c1Intents) LogStream(from, to []uint64) error {
	c.mu.Lock()
	heads := streamHeads(c.owner, from, to)
	c.mu.Unlock()
	return appendStream(c.j, heads, from, to)
}

// streamHeads returns the owning file's header for every relocation of
// a stream batch (from[i] != to[i]), indexed like the batch; nil when
// the batch is all fillers, as every idle burst is. The caller holds
// the lock that guards owner.
func streamHeads(owner map[uint64]uint64, from, to []uint64) []uint64 {
	var heads []uint64
	for i := range from {
		if from[i] != to[i] {
			if heads == nil {
				heads = make([]uint64, len(from))
			}
			heads[i] = owner[from[i]]
		}
	}
	return heads
}

// appendStream appends one record per stream element: a relocation
// intent where the element moves its block, a filler where it does not.
func appendStream(j *journal.Journal, heads, from, to []uint64) error {
	return j.AppendBatch(len(from), func(i int, rec *journal.Record) {
		if from[i] == to[i] {
			rec.Op = journal.OpDummy
			return
		}
		*rec = journal.Record{Op: journal.OpReloc, FileH: heads[i], OldLoc: from[i], NewLoc: to[i]}
	})
}

// vacated is the BitmapSpace hook: a committed relocation's old block
// enters the owner's limbo instead of the dummy pool, and the
// ownership note follows the data.
func (c *c1Intents) vacated(oldLoc, newLoc uint64) {
	c.mu.Lock()
	h := c.owner[oldLoc]
	delete(c.owner, oldLoc)
	c.owner[newLoc] = h
	c.limbo[h] = append(c.limbo[h], oldLoc)
	c.mu.Unlock()
}

// reset drops all adapter state (after recovery rebuilt the bitmap).
func (c *c1Intents) reset() {
	c.mu.Lock()
	c.owner = map[uint64]uint64{}
	c.limbo = map[uint64][]uint64{}
	c.mu.Unlock()
}

// EnableJournal wires the agent to the volume's journal ring: every
// stream element gains a sealed intent cell, vacated blocks are
// held in limbo until their file's save, and Recover can replay the
// ring after a crash. The journal key derives from the same agent
// secret as the block key, so the administrator who can mount the
// volume can also recover it. The volume must have been formatted
// with FormatOptions.JournalBlocks > 0.
func (a *NonVolatileAgent) EnableJournal() error {
	j, err := journal.Open(a.vol, a.jkey)
	if err != nil {
		return err
	}
	ad := newC1Intents(j, a.source)
	a.intents = ad
	a.vol.SetIntentLog(ad)
	a.sched.SetIntentLog(ad)
	a.space.SetVacateHook(ad.vacated)
	return nil
}

// Journaled reports whether EnableJournal has run.
func (a *NonVolatileAgent) Journaled() bool { return a.intents != nil }

// Recover replays the intent ring against the disk after a crash:
// every location the ring makes claims about is resolved by the
// durable header of the file the intent names — the header either
// references the location (live data) or does not (dummy cover) —
// and the agent's bitmap is corrected to match, newest intent first.
// Call it after LoadState restored the last bitmap snapshot and
// before serving traffic; it is idempotent, and a clean shutdown
// makes it a no-op.
func (a *NonVolatileAgent) Recover() (*journal.Report, error) {
	if a.intents == nil {
		return nil, journal.ErrNoJournal
	}
	a.opMu.Lock()
	defer a.opMu.Unlock()
	recs, err := a.intents.j.Scan()
	if err != nil {
		return nil, err
	}
	res, err := journal.Resolve(recs, func(fileH uint64) (map[uint64]bool, error) {
		return stegfs.ReferencedAt(a.vol, fileH, a.key)
	})
	if err != nil {
		return nil, err
	}
	rep := &journal.Report{Records: len(recs)}
	for _, v := range res.Verdicts {
		if v.Used {
			a.source.Acquire(v.Loc)
			rep.MarkedUsed++
		} else {
			a.source.Release(v.Loc)
			rep.MarkedFree++
		}
	}
	for _, committed := range res.Committed {
		if committed {
			rep.RelocsCommitted++
		} else {
			rep.RelocsRolledBack++
		}
	}
	rep.Unresolved = len(res.Unresolved)
	rep.BrokenFiles = len(res.Broken)
	a.intents.reset()
	return rep, nil
}

// JournalKeyFromSecret derives the journal key the way the agents do
// — for external tooling (fsck) that holds the agent secret.
func JournalKeyFromSecret(secret []byte, construction string) sealer.Key {
	return sealer.DeriveKey(secret, "steghide-"+construction+"-journal-key")
}
