package main

import "encoding/json"

// The benchmark's declaration: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root carries the same tables for the driver; TestSpecMatchesManifest
// keeps the two from drifting.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlLocalFiles     = "local-files"
	wlWireFiles      = "wire-files"
	wlObliviousReads = "oblivious-reads"
	wlCoverBurst     = "cover-burst"
)

var workloads = []workloadSpec{
	{wlLocalFiles, "in-process C2 stack, journal+metrics+daemon on; 256 KiB WriteFile/ReadFile/16-block update mix: facade to blockdev do all the work, wire and oblivious none; measured E meets Eq. 1 here"},
	{wlWireFiles, "same stack and mix behind ServeListener, 2 logins on 2 DialFS conns: every FS call adds a round trip and two sessions contend; the gap to local-files is the wire + contention cost"},
	{wlObliviousReads, "C1 stack with a (32,6) oblivious cache, 90% single-block ReadAt / 10% WriteAt over 512 blocks: hierarchy probes and reshuffles do the work, sched a tenth, wire and journal none"},
	{wlCoverBurst, "local-files stack, no daemon, back-to-back DummyUpdateBurst(64): the idle-time cover traffic of 4.1.3 - sched dummy path, reseal, journal fillers, batched device I/O; facade and wire idle"},
}

// endToEnd lists the metrics every workload reports with --trace 0.
// op_* time the workload's headline operation: WriteFile (256 KiB
// whole-file replace) on local-files and wire-files, single-block
// ReadAt on oblivious-reads, DummyUpdateBurst(64) on cover-burst.
//
// The timing bounds sit at the contract's ceiling because of the
// reference host, not the program: on the shared 2-core sandbox the
// medians of two ten-run sets of the same code differed by up to 19%,
// and the interquartile spread of ten runs reached 12% (README, "Noise
// floor"). The count-based bounds are tight.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"payload_mb_per_s", "MB/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the metrics every workload reports with --trace 1;
// a layer the workload leaves idle reports 0.
var perLayer = []metricSpec{
	{"facade.calls_per_op", "count", "lower", 0},
	{"facade.span_ms_total", "ms", "lower", 0},
	{"facade.write_file_p50_ms", "ms", "lower", 0},
	{"facade.read_file_p50_ms", "ms", "lower", 0},
	{"facade.read_file_p99_ms", "ms", "lower", 0},
	{"facade.update_block_p50_us", "us", "lower", 0},
	{"facade.update_block_p99_us", "us", "lower", 0},
	{"facade.open_p50_us", "us", "lower", 0},
	{"facade.close_save_p50_us", "us", "lower", 0},
	{"facade.share", "ratio", "lower", 0},

	{"wire.round_trips_per_op", "count", "lower", 0},
	{"wire.conn_writes_per_op", "count", "lower", 0},
	{"wire.bytes_per_user_byte", "ratio", "lower", 0},
	{"wire.rtt_p50_us", "us", "lower", 0},
	{"wire.overhead_ms_per_write_file", "ms", "lower", 0},
	{"wire.share", "ratio", "lower", 0},

	{"agent.known_blocks", "count", "higher", 0},
	{"agent.dummy_blocks", "count", "higher", 0},
	{"agent.daemon_issued", "count", "higher", 0},
	{"agent.daemon_skipped", "count", "higher", 0},
	{"agent.background_share", "ratio", "lower", 0},

	{"sched.data_updates", "count", "lower", 0},
	{"sched.iterations", "count", "lower", 0},
	{"sched.relocations", "count", "lower", 0},
	{"sched.in_place", "count", "lower", 0},
	{"sched.camouflage", "count", "lower", 0},
	{"sched.dummy_updates", "count", "lower", 0},
	{"sched.e_measured", "ratio", "lower", 0},
	{"sched.e_predicted", "ratio", "lower", 0},
	{"sched.e_residual", "ratio", "lower", 0},
	{"sched.update_probe_us", "us", "lower", 0},
	{"sched.update_probe_2c_us", "us", "lower", 0},
	{"sched.contention_ratio", "ratio", "lower", 0},
	{"sched.share", "ratio", "lower", 0},

	{"sealer.seal_us_per_block", "us", "lower", 0},
	{"sealer.open_us_per_block", "us", "lower", 0},
	{"sealer.seal_many_us_per_block", "us", "lower", 0},
	{"sealer.share", "ratio", "lower", 0},

	{"journal.slot_writes", "count", "lower", 0},
	{"journal.slot_writes_per_update", "ratio", "lower", 0},
	{"journal.busy_ms", "ms", "lower", 0},
	{"journal.append_probe_us", "us", "lower", 0},
	{"journal.share", "ratio", "lower", 0},

	{"stegfs.read_probe_mb_per_s", "MB/s", "higher", 0},
	{"stegfs.write_probe_mb_per_s", "MB/s", "higher", 0},
	{"stegfs.read_blocks_per_user_block", "ratio", "lower", 0},
	{"stegfs.save_blocks_written", "count", "lower", 0},

	{"oblivious.gets", "count", "lower", 0},
	{"oblivious.buffer_hits", "count", "higher", 0},
	{"oblivious.hits", "count", "higher", 0},
	{"oblivious.misses", "count", "lower", 0},
	{"oblivious.level_reads_per_get", "ratio", "lower", 0},
	{"oblivious.flushes", "count", "lower", 0},
	{"oblivious.dumps", "count", "lower", 0},
	{"oblivious.shuffle_io_per_put", "ratio", "lower", 0},
	{"oblivious.retouches", "count", "lower", 0},
	{"oblivious.fetches", "count", "lower", 0},
	{"oblivious.decoys", "count", "lower", 0},
	{"oblivious.read_block_p50_us", "us", "lower", 0},
	{"oblivious.stall_share", "ratio", "lower", 0},
	{"oblivious.store_probe_us_per_get", "us", "lower", 0},
	{"oblivious.share", "ratio", "lower", 0},

	{"blockdev.read_calls", "count", "lower", 0},
	{"blockdev.write_calls", "count", "lower", 0},
	{"blockdev.blocks_read", "count", "lower", 0},
	{"blockdev.blocks_written", "count", "lower", 0},
	{"blockdev.blocks_per_call", "ratio", "higher", 0},
	{"blockdev.busy_ms", "ms", "lower", 0},
	{"blockdev.busy_share", "ratio", "lower", 0},

	{"mempool.allocs_per_op", "count", "lower", 0},
	{"mempool.alloc_bytes_per_op", "count", "lower", 0},
	{"mempool.gc_cycles", "count", "lower", 0},
	{"mempool.gc_pause_ms", "ms", "lower", 0},

	{"bench.trace_overhead", "ratio", "lower", 0},
	{"bench.generator_share", "ratio", "lower", 0},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// manifestJSON renders the declaration in BENCHMARK.json's layout.
func manifestJSON() []byte {
	layers := make([]map[string]string, len(perLayer))
	for i, m := range perLayer {
		layers[i] = map[string]string{"name": m.Name, "unit": m.Unit, "better": m.Better}
	}
	b, _ := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}, "", "  ")
	return append(b, '\n')
}
