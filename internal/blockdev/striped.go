package blockdev

import "fmt"

// Striped aggregates several devices into one volume, distributing
// blocks round-robin — the data-grid / P2P storage substrate the
// paper's §7 names as future deployment ground ("extend the proposed
// mechanisms to various kinds of networked storage systems"). Block i
// lives on member i mod n at local index i div n, so the uniform
// access patterns the hiding constructions emit spread uniformly
// across nodes, and no single node observes more than 1/n of the
// (already pattern-free) stream.
type Striped struct {
	members   []Device
	blockSize int
	perMember uint64
	// allFast records that every member completes I/O at memory speed,
	// so a batch moves the members' shares inline instead of paying
	// goroutine scheduling that costs more than the memcpys it hides.
	allFast bool
}

// NewStriped combines the members. All must share a block size; the
// common capacity is n × the smallest member.
func NewStriped(members ...Device) (*Striped, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("blockdev: striped volume needs members")
	}
	bs := members[0].BlockSize()
	per := members[0].NumBlocks()
	allFast := true
	for i, m := range members {
		if m.BlockSize() != bs {
			return nil, fmt.Errorf("blockdev: member %d block size %d != %d", i, m.BlockSize(), bs)
		}
		if m.NumBlocks() < per {
			per = m.NumBlocks()
		}
		allFast = allFast && fastMember(m)
	}
	if per == 0 {
		return nil, fmt.Errorf("blockdev: striped member with zero blocks")
	}
	return &Striped{members: members, blockSize: bs, perMember: per, allFast: allFast}, nil
}

// fastMember reports whether d serves batch I/O at memory speed — no
// syscalls, no network, no simulated latency — so concurrent fan-out
// over it would only add goroutine overhead. Devices with real I/O
// latency (File, RemoteDevice, and anything unknown) report false and
// keep the concurrent fan-out.
func fastMember(d Device) bool {
	switch v := d.(type) {
	case *Mem:
		return true
	case *SubDevice:
		return fastMember(v.parent)
	case *Striped:
		return v.allFast
	default:
		return false
	}
}

// BlockSize implements Device.
func (s *Striped) BlockSize() int { return s.blockSize }

// NumBlocks implements Device.
func (s *Striped) NumBlocks() uint64 { return s.perMember * uint64(len(s.members)) }

// Locate maps a volume block to (member ordinal, local index).
func (s *Striped) Locate(i uint64) (member int, local uint64) {
	n := uint64(len(s.members))
	return int(i % n), i / n
}

// Close implements Device, closing every member (first error wins).
func (s *Striped) Close() error {
	var firstErr error
	for _, m := range s.members {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
