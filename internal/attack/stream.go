package attack

import (
	"encoding/binary"
	"fmt"

	"steghide/internal/prng"
)

// PublicStreamAdversary is the snapshot attacker who has read the
// code. It regenerates every generator stream that public bytes could
// seed — the superblock's plaintext salt, and the constant seed
// stegfs.Format once fell back to — under each label the volume ever
// derived a stream with, and counts the blocks of an image whose first
// 16 bytes are one of those streams' IVs or the start of one of their
// filler blocks. A keyed volume scores 0. Each match is a leak: an
// IV's index in its stream orders the write, and a filler match marks
// a dummy rewrite apart from sealed data.
type PublicStreamAdversary struct {
	BlockSize int
	// Horizon is how many IVs, and how many blocks of filler, it
	// regenerates per stream.
	Horizon int
}

// legacyFillSeed is the constant stegfs.Format seeded a volume with
// when the caller gave no seed.
const legacyFillSeed = "stegfs-default-fill-seed"

// publicLabels are the labels stegfs derived volume streams under,
// as children of the public seed; "" is the seed's own generator.
var publicLabels = []string{"", "volume-iv", "volume-iv-reopen", "fill"}

// Matches returns how many blocks of image past the superblock start
// with 16 bytes a public stream predicts.
func (a PublicStreamAdversary) Matches(image []byte) (int, error) {
	bs := a.BlockSize
	if bs < 128 || bs%16 != 0 || len(image) < bs || len(image)%bs != 0 {
		return 0, fmt.Errorf("attack: image of %d bytes in %d-byte blocks", len(image), bs)
	}
	salt, err := superblockSalt(image[:bs])
	if err != nil {
		return 0, err
	}
	known := make(map[[16]byte]struct{})
	fill := make([]byte, bs)
	for _, seed := range [][]byte{salt, []byte(legacyFillSeed)} {
		root := prng.New(seed)
		for _, label := range publicLabels {
			g := root
			if label != "" {
				g = root.Child(label)
			}
			var iv [16]byte
			for range a.Horizon {
				g.Read(iv[:]) //nolint:errcheck // prng reads cannot fail
				known[iv] = struct{}{}
				g.Fill(fill)
				known[[16]byte(fill)] = struct{}{}
			}
		}
	}
	n := 0
	for off := bs; off < len(image); off += bs {
		if _, ok := known[[16]byte(image[off:])]; ok {
			n++
		}
	}
	return n, nil
}

// superblockSalt reads the plaintext salt out of a stegfs superblock:
// magic, version, block size, block count and KDF iterations, then in
// version 2 the journal length, then the 32-byte salt.
func superblockSalt(sb []byte) ([]byte, error) {
	if string(sb[:8]) != "STEGVOL1" {
		return nil, fmt.Errorf("attack: no stegfs superblock")
	}
	off := 28
	if binary.BigEndian.Uint32(sb[8:]) == 2 {
		off = 36
	}
	return sb[off : off+32], nil
}
