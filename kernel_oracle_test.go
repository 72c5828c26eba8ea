package steghide_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// oracleImageDigest is the SHA-256 of the final device image of the
// seeded pipeline-oracle workload (runPipelineOracle): every byte the
// block kernels, the filler keystream and the decision stream leave on
// the device for fixed seeds.
const oracleImageDigest = "a8718770f5151979774fc6c654f7060b70480259e8025483e841bf479da78413"

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
