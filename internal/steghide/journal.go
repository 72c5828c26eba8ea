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
	intentRing
	source *stegfs.BitmapSource

	mu    sync.Mutex
	limbo map[uint64][]uint64 // header → vacated blocks awaiting its save
}

func newC1Intents(j *journal.Journal, source *stegfs.BitmapSource) *c1Intents {
	return &c1Intents{intentRing: intentRing{j}, source: source, limbo: map[uint64][]uint64{}}
}

// intentRing is what both journal adapters share: the ring, and the
// hooks that only append to it. Allocations, frees and the update
// stream need no adapter state; a relocation names the header its run
// carried.
type intentRing struct {
	j *journal.Journal
}

// LogAlloc implements stegfs.IntentLog.
func (r intentRing) LogAlloc(headerLoc uint64, locs []uint64) error {
	return r.j.AppendAlloc(headerLoc, locs)
}

// LogFree implements stegfs.IntentLog.
func (r intentRing) LogFree(headerLoc uint64, locs []uint64) error {
	return r.j.AppendFree(headerLoc, locs)
}

// LogStream implements sched.IntentLog: one ring cell per stream
// element, the whole batch in one append — a relocation intent naming
// head where the element moves its block, a filler where it does not.
func (r intentRing) LogStream(head uint64, from, to []uint64) error {
	return r.j.AppendBatch(len(from), func(i int, rec *journal.Record) {
		if from[i] == to[i] {
			rec.Op = journal.OpDummy
			return
		}
		*rec = journal.Record{Op: journal.OpReloc, FileH: head, OldLoc: from[i], NewLoc: to[i]}
	})
}

// LogSave implements stegfs.IntentLog: the header write is durable,
// so the file's vacated blocks finally become dummies.
func (c *c1Intents) LogSave(headerLoc uint64) error {
	if err := c.j.AppendSave(headerLoc); err != nil {
		return err
	}
	c.release(headerLoc)
	return nil
}

// release returns the limbo of the file whose header is at head to
// the bitmap: at its durable save, or once a delete destroyed the
// header the limbo waited on.
func (c *c1Intents) release(head uint64) {
	c.mu.Lock()
	freed := c.limbo[head]
	delete(c.limbo, head)
	c.mu.Unlock()
	for _, loc := range freed {
		c.source.Release(loc)
	}
}

// vacated is the BitmapSpace hook: a committed relocation's old block
// enters the limbo of the file whose header is at head instead of the
// dummy pool.
func (c *c1Intents) vacated(oldLoc, head uint64) {
	c.mu.Lock()
	c.limbo[head] = append(c.limbo[head], oldLoc)
	c.mu.Unlock()
}

// reset drops all adapter state (after recovery rebuilt the bitmap).
func (c *c1Intents) reset() {
	c.mu.Lock()
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
	rep.BrokenFiles = len(res.Broken)
	a.intents.reset()
	return rep, nil
}

// JournalKeyFromSecret derives the journal key the way the agents do
// — for external tooling (fsck) that holds the agent secret.
func JournalKeyFromSecret(secret []byte, construction string) sealer.Key {
	return sealer.DeriveKey(secret, "steghide-"+construction+"-journal-key")
}
