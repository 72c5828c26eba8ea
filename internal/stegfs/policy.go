package stegfs

import "steghide/internal/sealer"

// UpdatePolicy decides where an updated block lands and what extra
// I/O accompanies the update. It is the seam between the base file
// system and the access-hiding constructions:
//
//   - the original StegFS (and the conventional baselines) update in
//     place — see InPlacePolicy;
//   - the update-hiding constructions (§4, Figure 6) relocate the
//     block to a uniformly random position and emit camouflage I/O —
//     see internal/steghide.
type UpdatePolicy interface {
	// Update makes sealed[i] the new content of the block currently at
	// locs[i], for a run of distinct blocks of one file, and rewrites
	// locs with where each block landed; on an error locs is untouched.
	// A single block is the run of one. Every sealed[i] is a whole
	// device block already sealed under seal, IV included: a sealed
	// block does not depend on where it lands, so the file layer seals a
	// run in one batch and the policy only decides placement and emits
	// I/O. head is the location of the file's header and seal its
	// content key, for policies that record them with the blocks: a
	// journaled relocation names head, so recovery knows which on-disk
	// map decides it, and a camouflage update reseals under seal.
	// Implementations that relocate must transfer allocation ownership
	// of the old and new locations themselves.
	Update(locs []uint64, head uint64, seal *sealer.Sealer, sealed [][]byte) error
}

// InPlacePolicy is the conventional read-modify-write: blocks never
// move. This is the update behaviour of the original StegFS baseline,
// which hides existence but not access patterns.
type InPlacePolicy struct {
	Vol *Volume
}

// Update implements UpdatePolicy.
func (p InPlacePolicy) Update(locs []uint64, _ uint64, _ *sealer.Sealer, sealed [][]byte) error {
	for i, loc := range locs {
		if err := p.Vol.WriteRaw(loc, sealed[i]); err != nil {
			return err
		}
	}
	return nil
}
