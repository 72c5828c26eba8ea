// Package prng implements the deterministic pseudo-random number
// generator used throughout the steganographic file system.
//
// The paper (§6.1) constructs its generator from SHA-256; we follow it
// by running SHA-256 in counter mode over a seed:
//
//	block_i = SHA256(seed ‖ uint64(i))
//
// The stream is deterministic for a given seed, which makes every
// randomized decision in the system (block picks, IVs, shuffles,
// workloads) reproducible in tests and experiments. The generator is
// NOT safe for concurrent use; wrap it in a lock or derive independent
// child generators with Child.
//
// Beside that decision stream every generator carries an independent
// one for filler (format fill, dummy-block refills, dummy-slot
// padding): Fill writes an AES-256-CTR keystream keyed from the same
// seed. Filler is never read back; all it owes is being
// indistinguishable from ciphertext, which a block-cipher keystream is
// by the assumption that already covers the sealed blocks beside it,
// at a fraction of SHA-256's cost. Neither stream advances the other.
package prng

import (
	"crypto/sha256"
	"encoding/binary"

	"steghide/internal/aeskern"
)

// PRNG is a deterministic SHA-256 counter-mode generator.
type PRNG struct {
	seed    [32]byte
	counter uint64
	buf     [32]byte
	avail   int // unread bytes remaining at the tail of buf

	// The filler stream: keyed on first use, addressed by byte
	// position so the bytes do not depend on how calls cut them.
	fill    *aeskern.Schedule
	fillPos uint64
}

// New returns a generator seeded by hashing the given seed material.
func New(seed []byte) *PRNG {
	p := &PRNG{}
	p.seed = sha256.Sum256(seed)
	return p
}

// NewFromUint64 seeds a generator from an integer; convenient in tests.
func NewFromUint64(seed uint64) *PRNG {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	return New(b[:])
}

// Child derives an independent generator from this one's seed and a
// label, without consuming any of the parent's stream. Two children
// with different labels produce independent streams.
func (p *PRNG) Child(label string) *PRNG {
	h := sha256.New()
	h.Write(p.seed[:])
	h.Write([]byte{0xC4}) // domain separator
	h.Write([]byte(label))
	var seed []byte
	seed = h.Sum(seed)
	return New(seed)
}

func (p *PRNG) refill() {
	// One-shot Sum256 instead of sha256.New/Write/Sum: the digest of
	// seed ‖ counter is byte-identical, but the streaming API costs two
	// heap allocations per 32-byte refill — which made the PRNG the
	// top allocator of the whole reshuffle path (every nonce and IV
	// draws through here).
	var in [40]byte
	copy(in[:32], p.seed[:])
	binary.BigEndian.PutUint64(in[32:], p.counter)
	p.buf = sha256.Sum256(in[:])
	p.counter++
	p.avail = len(p.buf)
}

// Read fills b with pseudo-random bytes. It never fails; the error is
// always nil and is present only to satisfy io.Reader.
func (p *PRNG) Read(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		if p.avail == 0 {
			p.refill()
		}
		off := len(p.buf) - p.avail
		c := copy(b, p.buf[off:])
		p.avail -= c
		b = b[c:]
	}
	return n, nil
}

// Fill overwrites b with filler: the next len(b) bytes of the
// AES-256-CTR keystream (128-bit big-endian counter from zero) under
// key SHA-256(seed ‖ 0xB7). Fill(a) then Fill(b) yields the bytes of
// one Fill over a‖b. Use it only for bytes whose value means nothing;
// decisions and IVs come from Read.
func (p *PRNG) Fill(b []byte) {
	if p.fill == nil {
		var in [33]byte
		copy(in[:32], p.seed[:])
		in[32] = 0xB7 // domain separator (Child's is 0xC4)
		key := sha256.Sum256(in[:])
		p.fill = aeskern.NewSchedule(&key)
	}
	p.fill.Keystream(b, p.fillPos)
	p.fillPos += uint64(len(b))
}

// Bytes returns n fresh pseudo-random bytes.
func (p *PRNG) Bytes(n int) []byte {
	b := make([]byte, n)
	p.Read(b)
	return b
}

// Uint64 returns a uniformly distributed 64-bit value.
func (p *PRNG) Uint64() uint64 {
	var b [8]byte
	p.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Modulo bias is removed by rejection sampling.
func (p *PRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return p.Uint64() & (n - 1)
	}
	// Rejection sampling: draw until the value falls below the largest
	// multiple of n representable in 64 bits.
	limit := ^uint64(0) - (^uint64(0) % n)
	for {
		v := p.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(p.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (p *PRNG) Float64() float64 {
	// 53 random mantissa bits, the standard construction.
	return float64(p.Uint64()>>11) / (1 << 53)
}

// ShuffleInts permutes s in place.
func (p *PRNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements in place using the provided swap
// function, mirroring math/rand's contract.
func (p *PRNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}
