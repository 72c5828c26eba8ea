//go:build !amd64 || purego

package aeskern

// Off amd64 and under purego every Schedule takes the stdlib path.

func (s *Schedule) init(key *[KeySize]byte) { s.soft = newSoft(key) }

func (s *Schedule) decryptCBC(dst, src, iv []byte) { s.soft.decryptCBC(dst, src, iv) }

func encryptCBC(lanes []Lane) { encryptLanesSoft(lanes) }

func (s *Schedule) keystreamBlocks(dst []byte, ctr uint64) { s.soft.keystreamBlocks(dst, ctr) }

func (g *GMAC) init(key *[KeySize]byte) { g.soft = newSoftGMAC(key) }

func (g *GMAC) mask(iv *[BlockSize]byte) uint64 { return g.soft.mask(iv) }

func (g *GMAC) hash(data []byte) uint64 { return g.soft.hash(data) }
