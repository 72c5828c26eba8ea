package journal

import (
	"errors"
	"fmt"

	"steghide/internal/stegfs"
)

// Resolver reads the disk truth for one file: the set of block
// locations the durable header rooted at fileH references (see
// stegfs.ReferencedAt). It returns stegfs.ErrNotFound when no header
// decodes there — every location the intents attributed to that file
// is then free.
type Resolver func(fileH uint64) (map[uint64]bool, error)

// Covered is the ring's one rule for when an intent is settled without
// reading a header: a relocation, allocation or free is covered when a
// later OpSave of its file is in recs, because that save wrote the
// header that decides it. A clean shutdown leaves every intent
// covered; fsck reports the rest as pending, and Construction 2's
// recovery takes covered intents as ring-proven and quarantines what
// the others touch.
func Covered(recs []Record) func(Record) bool {
	lastSave := map[uint64]uint64{}
	for _, r := range recs {
		if r.Op == OpSave {
			lastSave[r.FileH] = r.Seq
		}
	}
	return func(r Record) bool { return lastSave[r.FileH] > r.Seq }
}

// Verdict is the recovered truth for one block location.
type Verdict struct {
	// Loc is the block the verdict concerns.
	Loc uint64
	// Used reports whether the durable state holds live data at Loc.
	Used bool
	// Seq is the record that decided the verdict — the newest one
	// touching Loc, because later intents supersede earlier ones.
	Seq uint64
}

// Resolution is the outcome of resolving a ring scan against disk.
type Resolution struct {
	// Verdicts holds one entry per distinct location the ring makes
	// claims about, decided newest-intent-first.
	Verdicts []Verdict
	// Committed maps each OpReloc sequence number to whether the
	// relocation's file durably references NewLoc (true: the data
	// lives at NewLoc; false: the save never landed and the data is
	// still at OldLoc).
	Committed map[uint64]bool
	// Broken lists file headers whose chain failed structurally
	// (stegfs.ErrCorrupt): their intents resolve to "free", but the
	// condition is worth surfacing.
	Broken []uint64
}

// Resolve decides every intent in recs against the disk truth the
// resolver reads. Records are processed newest first and the first
// verdict for a location wins: a location reused by a later file is
// decided by that later file's header, exactly as the disk would
// answer. Dummy, save, and checkpoint records carry no claims and are
// skipped.
func Resolve(recs []Record, resolve Resolver) (*Resolution, error) {
	res := &Resolution{Committed: map[uint64]bool{}}
	refsOf := map[uint64]map[uint64]bool{} // fileH → referenced set (nil: no file)
	lookup := func(fileH uint64) (map[uint64]bool, error) {
		refs, seen := refsOf[fileH]
		if seen {
			return refs, nil
		}
		refs, err := resolve(fileH)
		switch {
		case err == nil:
		case errors.Is(err, stegfs.ErrNotFound):
			refs = nil // no such file: nothing referenced
		case errors.Is(err, stegfs.ErrCorrupt):
			refs = nil
			res.Broken = append(res.Broken, fileH)
		default:
			return nil, err
		}
		refsOf[fileH] = refs
		return refs, nil
	}

	claimed := map[uint64]bool{}
	for i := len(recs) - 1; i >= 0; i-- {
		rec := &recs[i]
		locs := rec.Touches()
		if len(locs) == 0 {
			continue
		}
		refs, err := lookup(rec.FileH)
		if err != nil {
			return nil, err
		}
		if rec.Op == OpReloc {
			res.Committed[rec.Seq] = refs[rec.NewLoc]
		}
		for _, loc := range locs {
			if claimed[loc] {
				continue
			}
			claimed[loc] = true
			res.Verdicts = append(res.Verdicts, Verdict{Loc: loc, Used: refs[loc], Seq: rec.Seq})
		}
	}
	return res, nil
}

// Report summarizes a recovery run for logs and fsck output.
type Report struct {
	// Records is how many valid records the ring scan returned.
	Records int
	// RelocsCommitted and RelocsRolledBack split the resolved
	// relocation intents by outcome.
	RelocsCommitted, RelocsRolledBack int
	// MarkedUsed and MarkedFree count the partition corrections
	// applied.
	MarkedUsed, MarkedFree int
	// Unresolved counts the intents no save covered, which wait for
	// the disclosure of their file (Construction 2).
	Unresolved int
	// BrokenFiles counts headers whose pointer chain failed.
	BrokenFiles int
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("journal recovery: %d records, %d relocs committed, %d rolled back, %d→used %d→free, %d unresolved, %d broken files",
		r.Records, r.RelocsCommitted, r.RelocsRolledBack, r.MarkedUsed, r.MarkedFree, r.Unresolved, r.BrokenFiles)
}
