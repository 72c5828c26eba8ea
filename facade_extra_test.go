package steghide_test

import (
	"testing"
	"time"

	"steghide"
)

// TestPowerUserFileLayer exercises the direct (FAK, path) surface:
// hidden directories, the in-place policy, and the integrity checker.
func TestPowerUserFileLayer(t *testing.T) {
	dev := steghide.NewMemDevice(512, 2048)
	vol, err := steghide.Format(dev, steghide.FormatOptions{FillSeed: []byte("pu")})
	if err != nil {
		t.Fatal(err)
	}
	src := steghide.NewBitmapSource(vol, steghide.NewPRNG([]byte("alloc")))
	policy := steghide.InPlacePolicy{Vol: vol}

	dirFAK := steghide.DeriveFAK("pw", "/home", vol)
	dir, err := steghide.CreateHiddenDir(vol, dirFAK, "/home", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/home/a", "/home/b"} {
		f, err := steghide.CreateHiddenFile(vol, steghide.DeriveFAK("pw", name, vol), name, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("content of "+name), 0, policy); err != nil {
			t.Fatal(err)
		}
		if err := f.Save(); err != nil {
			t.Fatal(err)
		}
		dir.Add(name)
	}
	if err := dir.Save(policy); err != nil {
		t.Fatal(err)
	}

	re, err := steghide.OpenHiddenDir(vol, dirFAK, "/home", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.List(); len(got) != 2 || got[0] != "/home/a" {
		t.Fatalf("listing %v", got)
	}
	for _, name := range re.List() {
		if _, err := steghide.OpenHiddenFile(vol, steghide.DeriveFAK("pw", name, vol), name, src); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
	}

	report, err := steghide.CheckVolume(vol, map[string][]string{"pw": {"/home", "/home/a", "/home/b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() || report.FilesChecked != 3 {
		t.Fatalf("fsck: %s", report)
	}
}

// TestDummyDaemonFacade runs the idle-traffic daemon through the
// public API against a volatile agent.
func TestDummyDaemonFacade(t *testing.T) {
	dev := steghide.NewMemDevice(512, 1024)
	vol, err := steghide.Format(dev, steghide.FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatileAgent(vol, steghide.NewPRNG([]byte("d")))
	s, err := agent.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 64); err != nil {
		t.Fatal(err)
	}
	daemon := steghide.NewDummyDaemon(agent, time.Millisecond)
	daemon.Start()
	deadline := time.Now().Add(2 * time.Second)
	for daemon.Issued() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	daemon.Stop()
	if daemon.Issued() < 5 {
		t.Fatalf("daemon issued %d", daemon.Issued())
	}
	if n, lastErr := daemon.Errors(); n != 0 {
		t.Fatalf("daemon errors: %d (%v)", n, lastErr)
	}
}
