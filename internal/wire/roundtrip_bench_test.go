package wire

import (
	"fmt"
	"sync"
	"testing"

	"steghide/internal/blockdev"
)

// BenchmarkWireRoundTrip is where the cost of one wire hop is watched:
// the storage protocol over loopback, depth callers sharing one
// connection, each alternating a WriteBlocks and a ReadBlocks of 1 or
// 64 blocks of 4 KiB. One op is one round trip, so ns/op is its
// latency at depth 1 and its inverse throughput at depth 4.
func BenchmarkWireRoundTrip(b *testing.B) {
	const bs = 4096
	for _, depth := range []int{1, 4} {
		for _, blocks := range []int{1, 64} {
			b.Run(fmt.Sprintf("depth%d/blocks%d", depth, blocks), func(b *testing.B) {
				_, _, dev := newPair(b, bs, uint64(depth*blocks), nil)
				b.SetBytes(int64(blocks * bs))
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < depth; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						bufs := blockdev.AllocBlocks(blocks, bs)
						start := uint64(w * blocks)
						for i := (b.N + depth - 1 - w) / depth; i > 0; i-- {
							var err error
							if i%2 == 0 {
								err = dev.WriteBlocks(start, bufs)
							} else {
								err = dev.ReadBlocks(start, bufs)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}
