// P2P / data-grid deployment (§7's future-work direction): the raw
// storage is striped across several nodes, each of which can observe
// only its own share of the traffic. Because the hiding constructions
// already emit uniform, pattern-free streams, striping composes
// cleanly: each node sees ~1/n of a uniform process, which is again a
// uniform process.
//
// Each member device is a wire-protocol-v2 connection, so the
// stripe's scattered batch I/O pipelines to all nodes concurrently
// instead of lock-stepping one round trip at a time.
//
//	go run ./examples/p2p-stripe
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"steghide"
)

const nodes = 4

func main() {
	ctx := context.Background()

	// Each "node" is its own storage server with its own curious
	// operator tapping the wire.
	taps := make([]*steghide.Collector, nodes)
	var members []steghide.Device
	var servers []*steghide.StorageServer
	for i := 0; i < nodes; i++ {
		taps[i] = &steghide.Collector{}
		local := steghide.NewMemDevice(512, 1024)
		srv, err := steghide.NewStorageServer("127.0.0.1:0", local, taps[i])
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, srv)
		remote, err := steghide.DialStorage(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, remote)
		fmt.Printf("node %d serving on %s\n", i, srv.Addr())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// One logical volume across all nodes: Mount stripes the members,
	// formats, and stands the agent up in one call.
	stack, err := steghide.Mount(nil,
		steghide.WithStripe(members...),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("p2p")}),
		steghide.WithSeed([]byte("agent")))
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close() // hangs up every member through the stripe
	fmt.Printf("striped volume: %d blocks across %d nodes\n\n", stack.Volume().NumBlocks(), nodes)

	// Business as usual on top, through the unified FS.
	fs, err := stack.Login("alice", "pw")
	if err != nil {
		log.Fatal(err)
	}
	must(fs.CreateDummy(ctx, "/cover", 256))
	msg := []byte("the stripe hides with the same math as a single disk")
	must(steghide.WriteFile(ctx, fs, "/secret", msg))
	for i := 0; i < 200; i++ {
		_, err := stack.Agent2().DummyUpdateBurst(1)
		must(err)
	}
	got, err := steghide.ReadFile(ctx, fs, "/secret")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		log.Fatal("content mismatch across the stripe")
	}
	must(fs.Close())
	fmt.Printf("read back across %d nodes: %q\n\n", nodes, got)

	// What each node's operator saw: an even share of featureless ops.
	total := 0
	for _, tap := range taps {
		total += tap.Len()
	}
	for i, tap := range taps {
		fmt.Printf("node %d observed %d ops (%.0f%% of total)\n",
			i, tap.Len(), 100*float64(tap.Len())/float64(total))
	}
	fmt.Println("\nno node can reconstruct the access pattern — there is none to reconstruct.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
