package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Timed runs follow the driver's contract: set-up several times (the
// median is setup_s), one warm-up stretch, then one closed-loop
// interval of --seconds whose operations are logged. Latencies are
// percentiles over every headline operation of the interval.
// Throughput is the median over windows of a fixed number of
// operations, so a noisy stretch on a shared host cannot move it, and
// a window always holds the same work: on oblivious-reads one window
// is one full reshuffle cycle of the last level.
const (
	setupRounds   = 5
	warmupShare   = 0.1 // of the measured seconds, before the interval
	minWindows    = 5
	tailSamples   = 1000 // a p99 needs ten samples beyond it
	tailChunks    = 10
	watchdogAfter = 150 * time.Second
)

// windowOps is the number of operations per throughput window.
var windowOps = map[string]int{
	wlLocalFiles:     1000,
	wlWireFiles:      500,
	wlObliviousReads: obliBuffer << (obliLevels - 1), // 1024 accesses: one last-level dump
	wlCoverBurst:     500,
}

// config selects one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int  // set-up rounds; 0 means setupRounds
	corrupt  bool // negative test: device flips a byte per block read
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median of the metric taken over three equal
	// consecutive passes of the measured interval - the noise floor
	// the value carries. Omitted for counts and probes.
	Spread float64 `json:"spread,omitempty"`
}

// result is what one run produced.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int // sample count behind each timing
	notes             []string
	windows           []float64 // timed: ops/s of each throughput window, in order
	spans             []spanJSON
	spansDropped      int
}

// headline is the operation whose latency op_p50_us/op_tail_us time.
var headline = map[string]opKind{
	wlLocalFiles:     opWriteFile,
	wlWireFiles:      opWriteFile,
	wlObliviousReads: opReadBlock,
	wlCoverBurst:     opCoverBurst,
}

// opRecord is one logged operation; end is nanoseconds since the
// interval began.
type opRecord struct {
	opResult
	end int64
}

// drive runs the first `active` clients closed-loop — each issues its
// next operation when the previous returns — until stop says so, and
// returns the merged log ordered by completion.
func (r *rig) drive(ctx context.Context, active int, stop func(done int, elapsed time.Duration) bool) []opRecord {
	per := make([][]opRecord, active)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < active; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.clients[i]
			for !stop(len(per[i]), time.Since(start)) && ctx.Err() == nil {
				res := r.shape.op(c, ctx)
				per[i] = append(per[i], opRecord{res, int64(time.Since(start))})
			}
		}()
	}
	wg.Wait()
	log := slices.Concat(per...)
	if active > 1 {
		slices.SortStableFunc(log, func(a, b opRecord) int { return cmp.Compare(a.end, b.end) })
	}
	return log
}

// forDuration stops a drive after d.
func forDuration(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// forOps stops each client of a drive after n operations.
func forOps(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= n }
}

// tally counts a log's operations and failures.
func tally(log []opRecord) (attempted, failed int) {
	for _, o := range log {
		if !o.ok {
			failed++
		}
	}
	return len(log), failed
}

// logStats are the end-to-end figures of one stretch of the op log.
type logStats struct {
	opsPerS, mbPerS, p50us, tailUs float64
	headlineN                      int
	tailPct                        float64   // 99, or 90 under tailSamples samples
	windows                        []float64 // ops/s of each window, in order
}

// values names the figures as end-to-end metrics.
func (s logStats) values() map[string]float64 {
	return map[string]float64{
		"ops_per_s": s.opsPerS, "payload_mb_per_s": s.mbPerS, "op_p50_us": s.p50us, "op_tail_us": s.tailUs,
	}
}

// stats computes the figures of log, which began at time `from`
// (nanoseconds since the interval began). Throughput is the median
// over windows of w operations. The headline median is taken over the
// whole stretch; the tail is the median of the tail percentile of up
// to tailChunks consecutive chunks of at least tailSamples samples, so
// one disturbed second cannot set it.
func stats(log []opRecord, from int64, w int, head opKind) logStats {
	var st logStats
	if len(log) == 0 {
		return st
	}
	if len(log) < minWindows*w {
		w = max(len(log)/minWindows, 1)
	}
	var ops, mbs []float64
	var lat []int64
	prev := from
	var bytes uint64
	for i, o := range log {
		bytes += uint64(o.userRead + o.userWrites)
		if o.kind == head {
			lat = append(lat, o.ns)
		}
		if (i+1)%w == 0 {
			wall := float64(o.end-prev) / 1e9
			ops = append(ops, float64(w)/wall)
			mbs = append(mbs, float64(bytes)/1e6/wall)
			prev, bytes = o.end, 0
		}
	}
	st.opsPerS, st.mbPerS = median(ops), median(mbs)
	st.headlineN, st.windows = len(lat), ops
	st.tailPct = 99
	if len(lat) < tailSamples {
		st.tailPct = 90
	}
	chunks := min(max(len(lat)/tailSamples, 1), tailChunks)
	var tails []float64
	for k := 0; k < chunks; k++ {
		chunk := slices.Clone(lat[k*len(lat)/chunks : (k+1)*len(lat)/chunks])
		slices.Sort(chunk)
		tails = append(tails, percentile(chunk, st.tailPct)/1e3)
	}
	st.tailUs = median(tails)
	slices.Sort(lat)
	st.p50us = percentile(lat, 50) / 1e3
	return st
}

// runTimed produces the end-to-end metrics.
func runTimed(ctx context.Context, cfg config, prog *progress) (*result, error) {
	rounds := cfg.setups
	if rounds == 0 {
		rounds = setupRounds
	}
	var r *rig
	var setups []float64
	for i := 0; i < rounds; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC() // the previous 64 MiB device must not ride along into peak_rss_mb
		}
		start := time.Now()
		var err error
		if r, err = buildRig(ctx, cfg.workload, shapes[cfg.workload], cfg.seed, nil, cfg.corrupt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close() //nolint:errcheck // verified below; a late close error cannot change a measurement

	res := &result{metrics: map[string]metric{}, samples: map[string]int{}}
	active := len(r.clients)
	total := time.Duration(cfg.seconds * float64(time.Second))
	prog.add(tally(r.drive(ctx, active, forDuration(time.Duration(float64(total)*warmupShare)))))

	before := r.dev.snapshot()
	log := r.drive(ctx, active, forDuration(total))
	dev := r.dev.snapshot().sub(before)
	prog.add(tally(log))

	head, w := headline[cfg.workload], windowOps[cfg.workload]
	all := stats(log, 0, w, head)
	if all.tailPct != 99 {
		res.notes = append(res.notes, fmt.Sprintf("op_tail_us is p%g: only %d headline samples", all.tailPct, all.headlineN))
	}
	var written uint64
	for _, o := range log {
		written += uint64(o.userWrites)
	}
	// Pass spread: the same figures over three equal consecutive thirds.
	thirds := map[string][]float64{}
	for k := 0; k < 3; k++ {
		lo, hi := k*len(log)/3, (k+1)*len(log)/3
		from := int64(0)
		if lo > 0 {
			from = log[lo-1].end
		}
		for name, v := range stats(log[lo:hi], from, w, head).values() {
			thirds[name] = append(thirds[name], v)
		}
	}

	// Every file must still match the shadow model after the run; on
	// cover-burst this is the proof that cover traffic left data alone.
	for _, c := range r.clients {
		prog.add(len(c.paths), c.verifyAll(ctx, c.fs))
	}
	res.attempted, res.failed = prog.get()

	values := all.values()
	values["setup_s"], thirds["setup_s"] = median(setups), setups
	values["write_amp"] = float64(dev.blocksWritten) * devBlockSize / float64(max(written, 1))
	values["peak_rss_mb"] = peakRSSMB()
	for _, m := range endToEnd {
		res.metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit, Spread: spread(thirds[m.Name])}
	}
	res.samples["op_p50_us"], res.samples["op_tail_us"] = all.headlineN, all.headlineN
	res.samples["ops_per_s"], res.samples["setup_s"] = len(log), len(setups)
	res.windows = all.windows
	return res, nil
}

// progress counts attempted and failed operations where the watchdog
// can read them if the run hangs.
type progress struct {
	mu                sync.Mutex
	attempted, failed int
}

func (p *progress) add(attempted, failed int) {
	p.mu.Lock()
	p.attempted += attempted
	p.failed += failed
	p.mu.Unlock()
}

func (p *progress) get() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attempted, p.failed
}

// percentile returns the p-th percentile of sorted (nearest rank).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max-min)/median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / m
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
