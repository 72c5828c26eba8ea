package steghide

import (
	"errors"
	"sync"
	"time"

	"steghide/internal/obs"
)

// DummySource is anything that can emit one dummy update — both agent
// constructions implement it.
type DummySource interface {
	DummyUpdate() error
}

// BurstDummySource is a DummySource that can emit a whole burst of
// dummy updates through the batched I/O plane, reporting how many it
// actually issued — both agent constructions implement it.
type BurstDummySource interface {
	DummyUpdateBurst(n int) (int, error)
}

// ActivitySource reports a monotonically increasing count of real
// (data) updates on the stream — both agent constructions implement
// it by exposing the scheduler's data-update counter.
type ActivitySource interface {
	DataSeq() uint64
}

// Daemon issues dummy updates, §4.1.3's "whenever there is no user
// activity, the agent would issue dummy updates on randomly selected
// blocks". Real updates are indistinguishable from the daemon's
// traffic, so the period is a bandwidth/latency knob, not a security
// one — the stream must simply never be silent while the system is
// up.
//
// When the source also reports activity (ActivitySource — both agents
// do), the daemon is adaptive: a tick that finds real updates have
// flowed since the previous tick emits nothing, because the stream
// was demonstrably not silent; only genuinely idle gaps are filled.
// Skipping is invisible to the attacker — every stream element is
// identically distributed whether a session or the daemon produced it
// — and stops the daemon from competing with real traffic for
// bandwidth. WithAdaptive(false) restores unconditional ticking.
//
// A Daemon is restartable: Stop followed by Start begins a fresh run
// (counters accumulate across runs).
type Daemon struct {
	src      DummySource
	period   time.Duration
	burst    int
	activity ActivitySource
	adaptive bool

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	lastSeq uint64
	lastErr error // most recent tick error, guarded by mu

	// Tick counters are obs.Counter so EnableMetrics can export the
	// same atomics the accessors read — one source of truth.
	issued  obs.Counter
	skipped obs.Counter
	errs    obs.Counter
}

// NewDaemon prepares (but does not start) a dummy-traffic daemon.
// Sources that report activity get the adaptive behaviour by default.
func NewDaemon(src DummySource, period time.Duration) *Daemon {
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	d := &Daemon{src: src, period: period, burst: 1}
	if as, ok := src.(ActivitySource); ok {
		d.activity = as
		d.adaptive = true
	}
	return d
}

// WithBurst makes each tick issue n dummy updates instead of one,
// routed through the source's batched path when it has one
// (BurstDummySource) and a plain loop otherwise. Must be called
// before Start. It returns the daemon for chaining.
func (d *Daemon) WithBurst(n int) *Daemon {
	if n < 1 {
		n = 1
	}
	d.burst = n
	return d
}

// WithAdaptive enables or disables idle-gap detection. Must be called
// before Start. It returns the daemon for chaining.
func (d *Daemon) WithAdaptive(on bool) *Daemon {
	d.adaptive = on && d.activity != nil
	return d
}

// Start launches the background loop. Starting a running daemon is a
// no-op; starting after Stop begins a fresh run.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return
	}
	// Re-baseline the activity watermark so updates that flowed while
	// the daemon was stopped do not suppress the first tick of a
	// restarted run.
	if d.activity != nil {
		d.lastSeq = d.activity.DataSeq()
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.loop(d.stop, d.done)
}

func (d *Daemon) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(d.period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			issued, skipped, err := d.tick()
			d.issued.Add(issued) // partial bursts still count what went out
			if skipped {
				d.skipped.Inc()
			}
			switch {
			case err == nil:
			case errors.Is(err, ErrNoDummySpace):
				// Nothing disclosed yet — normal at boot; keep ticking.
			default:
				d.errs.Inc()
				d.mu.Lock()
				d.lastErr = err
				d.mu.Unlock()
			}
		}
	}
}

// tick emits one period's worth of dummy traffic, returning how many
// updates actually went out (a burst can come up short when few
// targets are eligible) and whether the tick was skipped because real
// traffic already kept the stream busy.
func (d *Daemon) tick() (uint64, bool, error) {
	if d.adaptive {
		seq := d.activity.DataSeq()
		d.mu.Lock()
		busy := seq != d.lastSeq
		d.lastSeq = seq
		d.mu.Unlock()
		if busy {
			return 0, true, nil
		}
	}
	if d.burst > 1 {
		if bs, ok := d.src.(BurstDummySource); ok {
			n, err := bs.DummyUpdateBurst(d.burst)
			return uint64(n), false, err
		}
		for i := 0; i < d.burst; i++ {
			if err := d.src.DummyUpdate(); err != nil {
				return uint64(i), false, err
			}
		}
		return uint64(d.burst), false, nil
	}
	if err := d.src.DummyUpdate(); err != nil {
		return 0, false, err
	}
	return 1, false, nil
}

// Stop halts the loop and waits for it to exit. Stopping a stopped
// daemon is a no-op.
func (d *Daemon) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Issued returns how many dummy updates the daemon has emitted.
func (d *Daemon) Issued() uint64 { return d.issued.Load() }

// Skipped returns how many ticks the adaptive daemon suppressed
// because real updates already kept the stream busy.
func (d *Daemon) Skipped() uint64 { return d.skipped.Load() }

// Errors returns the failure count and the most recent error.
func (d *Daemon) Errors() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.errs.Load(), d.lastErr
}

// EnableMetrics exports the daemon's tick counters through reg. The
// counters describe dummy traffic cadence — something the attacker
// watching the device already sees in full — and the skip counter
// only reveals that *some* real traffic flowed in a period, which the
// stream's own cadence reveals identically. Safe to call while the
// daemon runs.
func (d *Daemon) EnableMetrics(reg *obs.Registry, volume string) {
	l := []string{"volume", volume}
	reg.RegisterCounter("steghide_daemon_issued_total",
		"dummy updates the idle daemon has emitted", &d.issued, l...)
	reg.RegisterCounter("steghide_daemon_skipped_total",
		"adaptive ticks suppressed because real traffic kept the stream busy", &d.skipped, l...)
	reg.RegisterCounter("steghide_daemon_errors_total",
		"daemon ticks that failed", &d.errs, l...)
}
