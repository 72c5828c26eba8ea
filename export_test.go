package steghide

// ReadFileChunk exposes readFileChunk to the package's external tests.
const ReadFileChunk = readFileChunk

// NewCluster and ClusterKey expose the fleet's constructor and
// placement key to the fleet tests, which build clusters over local
// shards.
var (
	NewCluster = newCluster
	ClusterKey = clusterKey
)
