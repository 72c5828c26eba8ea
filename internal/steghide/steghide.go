// Package steghide implements the paper's primary contribution: the
// update-analysis countermeasure of §4, in both constructions.
//
// The threat: an attacker who can snapshot the raw storage repeatedly
// sees which blocks changed between snapshots. Even with StegFS
// hiding the directory structure, a stable set of changing blocks
// betrays the existence (and extent) of hidden files.
//
// The defence (Figure 6):
//
//   - When idle, the agent issues dummy updates on randomly selected
//     blocks: read, decrypt, fresh IV, re-encrypt, write. Without the
//     key, a dummy update is indistinguishable from a data update.
//   - When a data block is updated, it is relocated to a uniformly
//     random block: the agent repeatedly draws a random block B2;
//     if B2 is the block itself it updates in place; if B2 is a dummy
//     block the data moves there (the old location becomes a dummy);
//     otherwise B2 gets a camouflage dummy update and the draw
//     repeats.
//
// Under this algorithm every observable update touches a uniformly
// random block, whether or not real work is happening — the scheme is
// perfectly secure in the sense of Definition 1 (§3.2.4). The expected
// I/O overhead is N/D, where D of N blocks are dummies (§4.1.5).
//
// Two constructions differ in where secrets live:
//
//   - NonVolatileAgent (Construction 1, "StegHide*"): the agent keeps
//     one global block-encryption key and the dummy file's identity in
//     persistent memory, so it can reseal any block and knows the
//     data/dummy partition at all times.
//   - VolatileAgent (Construction 2, "StegHide"): the agent boots with
//     zero knowledge. Users disclose per-file FAKs (and dummy-file
//     FAKs) at login; the agent operates strictly on disclosed blocks
//     and forgets everything at logout. A coerced user can disclose
//     dummy files — or real files with a wrong content key — and
//     plausibly deny everything else.
package steghide

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"steghide/internal/sched"
	"steghide/internal/sealer"
)

// Sentinel errors.
var (
	// ErrNoDummySpace reports that the update algorithm cannot make
	// progress because no dummy blocks are visible: Construction 1 at
	// 100% utilization, or Construction 2 before any dummy file has
	// been disclosed.
	ErrNoDummySpace = errors.New("steghide: no dummy blocks available to the agent")
	// ErrUnknownUser reports an operation for a user with no session.
	ErrUnknownUser = errors.New("steghide: user has no active session")
	// ErrNotDisclosed reports an operation on a file that has not been
	// disclosed in the current session.
	ErrNotDisclosed = errors.New("steghide: file not disclosed in this session")
	// ErrUserBusy reports a login for a user who already has an active
	// session. Over the wire this is usually transient: the user's old
	// connection died and its implicit logout is still flushing, so a
	// reconnecting client briefly retries logins that report it.
	ErrUserBusy = errors.New("steghide: user already logged in")
	// ErrExists reports a create of a path the caller already holds
	// open. A retry of a create whose first attempt may have applied
	// (a broken connection, a partial fan-out) meets it, and can tell
	// "already there" from a real failure.
	ErrExists = errors.New("steghide: file already open")
)

// UpdateStats aggregates the observable work of an agent: the
// scheduler's counter snapshot.
type UpdateStats = sched.Stats

// runPolicy is the stegfs.UpdatePolicy both agents hand the file
// layer: a run of blocks goes to the volume's scheduler as one
// Figure-6 batch, under the caller's context, with the header of the
// file it belongs to for the journal's relocation intents.
type runPolicy struct {
	ctx   context.Context
	sched *sched.Scheduler
	// fence is Construction 1's snapshot fence, held shared across the
	// run; nil for Construction 2, which has no persistent state.
	fence *sync.RWMutex
}

// Update implements stegfs.UpdatePolicy.
func (p runPolicy) Update(locs []uint64, head uint64, seal *sealer.Sealer, sealed [][]byte) error {
	if p.fence != nil {
		p.fence.RLock()
		defer p.fence.RUnlock()
	}
	err := p.sched.UpdateRun(p.ctx, locs, head, seal, sealed)
	if errors.Is(err, sched.ErrNoFreeSpace) {
		// The bitmap space's sentinel, in the agents' vocabulary.
		return fmt.Errorf("%w: volume at 100%% utilization", ErrNoDummySpace)
	}
	return err
}
