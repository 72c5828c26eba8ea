package blockdev

import (
	"errors"
	"testing"
)

func TestFaultDeviceCountdown(t *testing.T) {
	fd := NewFault(NewMem(64, 8))
	buf := make([]byte, 64)

	// Unarmed: everything works.
	for i := 0; i < 5; i++ {
		if err := WriteBlock(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := ReadBlock(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Two reads succeed, the third and later fail.
	fd.FailReadsAfter(2)
	if err := ReadBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ReadBlock(fd, 0, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// Writes unaffected.
	if err := WriteBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}

	fd.FailWritesAfter(0)
	if err := WriteBlock(fd, 0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write: %v", err)
	}
	fd.Heal()
	if err := WriteBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPowerCutAfterWrites(t *testing.T) {
	mem := NewMem(64, 8)
	fd := NewFault(mem)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0x11
	}

	fd.PowerCutAfterWrites(2)
	if err := WriteBlock(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlock(fd, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := fd.Writes(); got != 2 {
		t.Fatalf("Writes() = %d, want 2", got)
	}
	// The third write dies, and nothing lands.
	if err := WriteBlock(fd, 2, buf); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("fatal write: %v", err)
	}
	// The host is down: reads fail too, and so do later writes.
	if err := ReadBlock(fd, 0, buf); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read after cut: %v", err)
	}
	if err := WriteBlock(fd, 3, buf); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut: %v", err)
	}

	// Reboot: the medium holds exactly the pre-cut prefix.
	fd.Heal()
	got := make([]byte, 64)
	if err := ReadBlock(fd, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 {
		t.Fatal("write before the cut did not survive")
	}
	if err := ReadBlock(fd, 2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("write at the cut index leaked through")
	}
}

func TestPowerCutMidBatchPrefix(t *testing.T) {
	mem := NewMem(64, 8)
	fd := NewFault(mem)
	data := AllocBlocks(6, 64)
	for i := range data {
		for k := range data[i] {
			data[i][k] = byte(i + 1)
		}
	}
	fd.PowerCutAfterWrites(3)
	if err := fd.WriteBlocks(0, data); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("batched write across the cut: %v", err)
	}
	fd.Heal()
	buf := make([]byte, 64)
	for i := uint64(0); i < 6; i++ {
		if err := ReadBlock(fd, i, buf); err != nil {
			t.Fatal(err)
		}
		want := byte(0)
		if i < 3 {
			want = byte(i + 1)
		}
		if buf[0] != want {
			t.Fatalf("block %d holds %#x after mid-batch cut, want %#x", i, buf[0], want)
		}
	}
}

func TestPowerCutTornFinalWrite(t *testing.T) {
	mem := NewMem(64, 8)
	fd := NewFault(mem)
	old := make([]byte, 64)
	for i := range old {
		old[i] = 0xAA
	}
	if err := WriteBlock(fd, 0, old); err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, 64)
	for i := range fresh {
		fresh[i] = 0xBB
	}
	fd.PowerCutTorn(0, 0.5)
	if err := WriteBlock(fd, 0, fresh); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("torn write: %v", err)
	}
	fd.Heal()
	got := make([]byte, 64)
	if err := ReadBlock(fd, 0, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got[i] != 0xBB {
			t.Fatalf("byte %d = %#x, want torn-in new data", i, got[i])
		}
	}
	for i := 32; i < 64; i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d = %#x, want surviving old data", i, got[i])
		}
	}
}
