package stegfs

import (
	"strings"
	"testing"

	"steghide/internal/prng"
	"steghide/internal/sealer"
)

func TestCheckHealthyVolume(t *testing.T) {
	vol, src := testVolume(t, 1024)
	policy := InPlacePolicy{Vol: vol}
	master := sealer.KeyFromPassphrase("pw", vol.Salt(), vol.KDFIterations())
	for _, path := range []string{"/a", "/b"} {
		f, err := CreateFile(vol, DeriveFAKFromMaster(master, path), path, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(prng.New([]byte(path)).Bytes(20*vol.PayloadSize()), 0, policy); err != nil {
			t.Fatal(err)
		}
		if err := f.Save(); err != nil {
			t.Fatal(err)
		}
	}
	dfak := DeriveFAKFromMaster(master, "/dummy")
	if _, err := CreateDummyFile(vol, dfak, "/dummy", src, 30); err != nil {
		t.Fatal(err)
	}

	report, err := Check(vol, map[string][]string{"pw": {"/a", "/b", "/dummy", "/missing"}})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("healthy volume flagged: %s", report)
	}
	if report.FilesChecked != 3 || report.BlocksVerified != 40 {
		t.Fatalf("report %s", report)
	}
	if len(report.Missing) != 1 || report.Missing[0] != "/missing" {
		t.Fatalf("missing list %v", report.Missing)
	}
	if !strings.Contains(report.String(), "3 files") {
		t.Fatalf("summary: %s", report)
	}
}

func TestCheckFlagsCorruption(t *testing.T) {
	vol, src := testVolume(t, 1024)
	master := sealer.KeyFromPassphrase("pw", vol.Salt(), vol.KDFIterations())
	f, err := CreateFile(vol, DeriveFAKFromMaster(master, "/x"), "/x", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 40*vol.PayloadSize()), 0, InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	// Smash the single-indirect pointer block.
	if err := vol.RewriteRandom(nil, f.IndirectLocs()[0]); err != nil {
		t.Fatal(err)
	}
	report, err := Check(vol, map[string][]string{"pw": {"/x"}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ok() {
		t.Fatal("corrupt chain passed fsck")
	}
	if _, flagged := report.Corrupt["/x"]; !flagged {
		t.Fatalf("corruption not attributed: %s", report)
	}
}

func TestCheckFlagsDuplicateOwnership(t *testing.T) {
	vol, src := testVolume(t, 1024)
	master := sealer.KeyFromPassphrase("pw", vol.Salt(), vol.KDFIterations())
	policy := InPlacePolicy{Vol: vol}
	fa, err := CreateFile(vol, DeriveFAKFromMaster(master, "/a"), "/a", src)
	if err != nil {
		t.Fatal(err)
	}
	fa.WriteAt(make([]byte, 3*vol.PayloadSize()), 0, policy)
	if err := fa.Save(); err != nil {
		t.Fatal(err)
	}
	fb, err := CreateFile(vol, DeriveFAKFromMaster(master, "/b"), "/b", src)
	if err != nil {
		t.Fatal(err)
	}
	fb.WriteAt(make([]byte, 3*vol.PayloadSize()), 0, policy)
	// Sabotage: rewire /b's map so it claims one of /a's blocks.
	if err := fb.relocateBlock(0, fa.BlockLocs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := fb.Save(); err != nil {
		t.Fatal(err)
	}
	report, err := Check(vol, map[string][]string{"pw": {"/a", "/b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.DuplicateOwners) == 0 {
		t.Fatalf("cross-owned block not flagged: %s", report)
	}
}
