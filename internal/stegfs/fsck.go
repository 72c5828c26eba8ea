package stegfs

import (
	"errors"
	"fmt"

	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// CheckReport is the result of a volume integrity check. The paper's
// integrity objective (§1, objective b) demands that relocations and
// dummy updates never cause irrecoverable loss; Check verifies it for
// everything a key holder can reach.
type CheckReport struct {
	// FilesChecked is the number of paths that opened successfully.
	FilesChecked int
	// Missing lists paths that did not resolve (not necessarily an
	// error: a wrong key is indistinguishable by design).
	Missing []string
	// Corrupt maps paths to the structural error found.
	Corrupt map[string]error
	// BlocksVerified is the number of data blocks read successfully.
	BlocksVerified uint64
	// DuplicateOwners lists blocks claimed by more than one checked
	// file — a bookkeeping failure of the update machinery.
	DuplicateOwners []uint64
}

// Ok reports whether the check found no problems.
func (r *CheckReport) Ok() bool {
	return len(r.Corrupt) == 0 && len(r.DuplicateOwners) == 0
}

// String renders a one-line summary.
func (r *CheckReport) String() string {
	return fmt.Sprintf("fsck: %d files, %d blocks verified, %d missing, %d corrupt, %d duplicate-owned",
		r.FilesChecked, r.BlocksVerified, len(r.Missing), len(r.Corrupt), len(r.DuplicateOwners))
}

// Check walks every (passphrase, path) the caller can name and
// verifies what the volume holds for them: header decode, pointer
// chains (checksummed), every data block readable, and no block owned
// by two files. Only reachable state can be checked — that is the
// point of a steganographic volume.
func Check(vol *Volume, creds map[string][]string) (*CheckReport, error) {
	report := &CheckReport{Corrupt: map[string]error{}}
	owners := map[uint64]string{}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(0))

	claim := func(path string, loc uint64) {
		if prev, taken := owners[loc]; taken && prev != path {
			report.DuplicateOwners = append(report.DuplicateOwners, loc)
			return
		}
		owners[loc] = path
	}

	for passphrase, paths := range creds {
		master := sealer.KeyFromPassphrase(passphrase, vol.Salt(), vol.KDFIterations())
		for _, path := range paths {
			fak := DeriveFAKFromMaster(master, path)
			f, err := OpenFile(vol, fak, path, src)
			if errors.Is(err, ErrNotFound) {
				report.Missing = append(report.Missing, path)
				continue
			}
			if err != nil {
				report.Corrupt[path] = err
				continue
			}
			report.FilesChecked++
			for _, loc := range f.Owned() {
				claim(path, loc)
			}
			if f.IsDummy() {
				continue // dummy content is random by construction
			}
			payload := make([]byte, vol.PayloadSize())
			for li := range f.NumBlocks() {
				if err := f.ReadBlockAt(li, payload); err != nil {
					report.Corrupt[path] = fmt.Errorf("block %d: %w", li, err)
					break
				}
				report.BlocksVerified++
			}
		}
	}
	return report, nil
}
