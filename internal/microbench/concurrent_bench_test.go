package microbench

import (
	"fmt"
	"testing"
)

// BenchmarkConcurrentClients is the go-test entry point for the
// multi-client scaling suite benchrunner emits into
// BENCH_results.json: aggregate update throughput at 1/4/16/64
// concurrent sessions, locally and over TCP. One op = one Figure-6
// data update, so aggregate throughput scaling shows directly as
// ns/op shrinking while the session count grows.
func BenchmarkConcurrentClients(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("local-%d", n), func(b *testing.B) { concurrentLocal(b, n) })
	}
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("wire-%d", n), func(b *testing.B) { concurrentWire(b, n) })
	}
	// The sharded-fleet variant: the same aggregate-update workload
	// spread by the keyed ring over a 16-daemon cluster, one scheduler
	// per shard.
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("fleet-16x%d", n), func(b *testing.B) { concurrentFleet(b, n) })
	}
	// The wire protocol's pipelining benchmark: N sessions × 8-deep
	// reads, all N×8 sharing their connections in flight.
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("pipeline-pipelined-%d", n), func(b *testing.B) { pipelineWire(b, n) })
	}
}
