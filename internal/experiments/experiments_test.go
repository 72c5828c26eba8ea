package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestScaleValidation(t *testing.T) {
	for _, s := range []Scale{PaperScale(), QuickScale()} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := QuickScale()
	bad.LayoutBlockSize = 128
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny layout blocks accepted")
	}
	bad = QuickScale()
	bad.ObliBufferLabels = bad.ObliBufferLabels[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("label/buffer mismatch accepted")
	}
	bad = QuickScale()
	bad.Fig10aFileBlocks = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty file sizes accepted")
	}
}

func TestFileMB(t *testing.T) {
	s := PaperScale()
	if got := s.FileMB(2560); got != 10.0 {
		t.Fatalf("2560 blocks at 4K = %v MB, want 10", got)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"col", "value"},
	}
	tab.AddRow("a", 1.5)
	tab.AddRow("bbbb", 7)
	tab.AddRow("c", uint64(9))
	tab.Note("footnote %d", 1)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x — demo ==", "col", "bbbb", "1.500", "note: footnote 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestLookupAndAll(t *testing.T) {
	if len(All()) != 11 {
		t.Fatalf("expected 11 experiments, have %d", len(All()))
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := Lookup(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("lookup %s: %v", e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSystemsContract(t *testing.T) {
	// Every system must create, scan and update through the uniform
	// interface, and its scan stream must stay within the device.
	s := QuickScale()
	for _, name := range SystemNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, col, err := NewSystem(name, s, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.CreateFile("u00", "/t", 40); err != nil {
				t.Fatal(err)
			}
			stream, err := sys.ScanStream("u00", "/t")
			if err != nil {
				t.Fatal(err)
			}
			if len(stream) < 40 {
				t.Fatalf("scan stream of %d blocks for a 40-block file", len(stream))
			}
			for _, b := range stream {
				if b >= s.VolumeBlocks {
					t.Fatalf("stream block %d beyond device", b)
				}
			}
			col.Reset()
			if err := sys.Update("u00", "/t", 3, 2); err != nil {
				t.Fatal(err)
			}
			if col.Len() == 0 {
				t.Fatal("update produced no observable I/O")
			}
			// Scanning a missing file fails.
			if _, err := sys.ScanStream("u00", "/missing"); err == nil {
				t.Fatal("missing file scanned")
			}
		})
	}
	if _, _, err := NewSystem("NoSuchSystem", s, 1); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestReplayRoundRobinDeterministic(t *testing.T) {
	s := QuickScale()
	streams := [][]ioEvent{
		readStream([]uint64{1, 2, 3, 100, 101}),
		readStream([]uint64{500, 501, 502}),
	}
	a := replayRoundRobin(s, streams)
	b := replayRoundRobin(s, streams)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay not deterministic")
		}
	}
	if a[1] >= a[0] {
		// Stream 1 is shorter; it must finish no later than stream 0
		// under round-robin.
		t.Fatalf("completion times out of order: %v", a)
	}
	if meanDuration(nil) != 0 {
		t.Fatal("mean of empty set")
	}
}

func TestSetupForUpdatesUtilization(t *testing.T) {
	// The bitmap systems must land near the requested utilization.
	s := QuickScale()
	sys, _, err := setupForUpdates(nameStegHideStar, s, 1, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1 := sys.(*c1Sys)
	src := c1.Agent().Source()
	first, n := src.SpaceBounds()
	span := n - first
	util := float64(span-src.FreeCount()) / float64(span)
	if util < 0.39 || util > 0.45 {
		t.Fatalf("utilization %.3f, want ≈0.40", util)
	}
	if _, _, err := setupForUpdates(nameStegFS, s, 1, 0, 3); err == nil {
		t.Fatal("zero utilization accepted")
	}
	if _, _, err := setupForUpdates(nameStegFS, s, 1, 0.99, 3); err == nil {
		t.Fatal("out-of-range utilization accepted")
	}
}
