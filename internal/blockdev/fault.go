package blockdev

import (
	"errors"
	"sync"
)

// ErrInjected is the error FaultDevice returns when a fault fires.
var ErrInjected = errors.New("blockdev: injected fault")

// ErrPowerCut is the error every operation returns once a power-cut
// fault has fired: the host is "down" until Heal simulates the reboot.
var ErrPowerCut = errors.New("blockdev: power cut")

// FaultDevice wraps a device and fails operations on demand — the
// failure-injection harness used to verify that every layer above
// propagates storage errors instead of panicking or corrupting its
// in-memory state, and (power-cut mode) that mount-time recovery can
// repair a volume cut off at any write whatsoever. It has no batch fast
// path on purpose: the batch helpers drive its ReadBlock/WriteBlock one
// block at a time, so a fault firing mid-batch leaves a strict prefix —
// the partial-batch state the layers above must survive.
type FaultDevice struct {
	Device
	mu sync.Mutex
	// failReadsAfter / failWritesAfter count down on each operation;
	// when a counter is zero the operation fails (and keeps failing).
	// Negative counters never fire.
	readsLeft  int64
	writesLeft int64

	// Power-cut state: after cutAfter successful writes the device
	// dies — the fatal write optionally stores a torn prefix first,
	// and every operation after it fails with ErrPowerCut.
	cutAfter int64 // -1: disarmed
	tornFrac float64
	dead     bool
	writes   int64 // successful block-writes since construction
	cutBlock uint64
	cutValid bool
}

// NewFault wraps base with no faults armed.
func NewFault(base Device) *FaultDevice {
	return &FaultDevice{Device: base, readsLeft: -1, writesLeft: -1, cutAfter: -1}
}

// PowerCutAfterWrites arms the power-cut fault: the next k block-level
// writes succeed, then the device dies — every later operation (reads
// included) fails with ErrPowerCut until Heal "reboots" the host.
// Batched operations transfer per block, so the cut lands mid-batch
// with strict prefix semantics: blocks before the cut are durable,
// none after. k counts from now, not from construction.
func (f *FaultDevice) PowerCutAfterWrites(k int64) {
	f.mu.Lock()
	f.cutAfter = f.writes + k
	f.tornFrac = 0
	f.dead = false
	f.mu.Unlock()
}

// PowerCutTorn arms the power-cut fault like PowerCutAfterWrites, but
// the fatal (k+1)-th write tears: a prefix of frac of the new block
// reaches the medium before the cut, splicing new bytes over old —
// the classic torn sector a non-atomic disk leaves behind.
func (f *FaultDevice) PowerCutTorn(k int64, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	f.mu.Lock()
	f.cutAfter = f.writes + k
	f.tornFrac = frac
	f.dead = false
	f.mu.Unlock()
}

// Writes returns how many block-level writes have succeeded — the
// count crash-matrix tests sweep their cut index over.
func (f *FaultDevice) Writes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// CutBlock returns the block the fatal power-cut write targeted —
// the only block a torn cut can have corrupted.
func (f *FaultDevice) CutBlock() (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutBlock, f.cutValid
}

// alive reports whether the device still works, failing reads that
// arrive after the cut.
func (f *FaultDevice) alive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.dead
}

// tickWrite accounts one write attempt on block i: it reports whether
// the write may proceed, and on the fatal write returns the number of
// bytes of the new block to splice in before dying.
func (f *FaultDevice) tickWrite(i uint64) (proceed bool, torn int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return false, 0, ErrPowerCut
	}
	if f.cutAfter >= 0 && f.writes >= f.cutAfter {
		f.dead = true
		f.cutBlock, f.cutValid = i, true
		return false, int(f.tornFrac * float64(f.BlockSize())), ErrPowerCut
	}
	if f.writesLeft == 0 {
		return false, 0, ErrInjected
	}
	if f.writesLeft > 0 {
		f.writesLeft--
	}
	f.writes++
	return true, 0, nil
}

// FailReadsAfter arms the read fault: the next n reads succeed, every
// read after that fails. n = 0 fails immediately.
func (f *FaultDevice) FailReadsAfter(n int64) {
	f.mu.Lock()
	f.readsLeft = n
	f.mu.Unlock()
}

// FailWritesAfter arms the write fault analogously.
func (f *FaultDevice) FailWritesAfter(n int64) {
	f.mu.Lock()
	f.writesLeft = n
	f.mu.Unlock()
}

// Heal disarms all faults; for a power cut it is the reboot that
// brings the medium back with whatever the cut left on it.
func (f *FaultDevice) Heal() {
	f.mu.Lock()
	f.readsLeft = -1
	f.writesLeft = -1
	f.cutAfter = -1
	f.tornFrac = 0
	f.dead = false
	f.mu.Unlock()
}

func (f *FaultDevice) tick(counter *int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *counter < 0 {
		return false
	}
	if *counter == 0 {
		return true
	}
	*counter--
	return false
}

// ReadBlock implements Device.
func (f *FaultDevice) ReadBlock(i uint64, buf []byte) error {
	if !f.alive() {
		return ErrPowerCut
	}
	if f.tick(&f.readsLeft) {
		return ErrInjected
	}
	return f.Device.ReadBlock(i, buf)
}

// WriteBlock implements Device.
func (f *FaultDevice) WriteBlock(i uint64, data []byte) error {
	proceed, torn, err := f.tickWrite(i)
	if !proceed {
		if torn > 0 {
			// The fatal write tears: a prefix of the new block lands
			// over the old content before the host dies.
			old := make([]byte, f.BlockSize())
			if e := f.Device.ReadBlock(i, old); e == nil {
				copy(old[:torn], data[:torn])
				_ = f.Device.WriteBlock(i, old)
			}
		}
		return err
	}
	return f.Device.WriteBlock(i, data)
}
