package steghide_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// oracleImageDigest is the SHA-256 of the final device image of the
// seeded pipeline-oracle workload (runPipelineOracle): every byte the
// block kernels, the filler keystream and the decision stream leave on
// the device for fixed seeds. The oracle volume is journaled, so the
// digest covers the ring's bytes: it was regenerated when the ring went
// from one record per slot to cells (the steg space is byte-identical),
// and again for write-behind: the workload's three sub-block WriteAts
// through one handle used to land as they came, one run of one or two
// blocks each between the dummy bursts, and now land once, as one run,
// at Close — fewer data updates, drawn later in the decision stream.
const oracleImageDigest = "83605254ce8df93f7af5b30235d2ee1920b91b1e01d0d326a042ab442fba2afd"

// TestKernelOracleImageDigest pins that image against the committed
// digest. One process links one kernel build, so the assembly and the
// purego (stdlib) builds cannot be compared in a single run; CI runs
// this test under both, and both must meet the same constant — which
// is the proof that they write byte-identical volumes. Serial and
// pipelined bursts are both held to it. A change that intends to move
// on-disk bytes for fixed seeds regenerates the constant and says why.
func TestKernelOracleImageDigest(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		sum := sha256.Sum256(runPipelineOracle(t, pipeline).image)
		if got := hex.EncodeToString(sum[:]); got != oracleImageDigest {
			t.Errorf("pipeline=%v: oracle image digest %s, want %s", pipeline, got, oracleImageDigest)
		}
	}
}
