package aeskern

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The reference for every test below is crypto/cipher with a fresh
// mode per call — the construction the kernels replace.

func refEncrypt(key *[KeySize]byte, iv, src []byte) []byte {
	b, _ := aes.NewCipher(key[:])
	out := make([]byte, len(src))
	cipher.NewCBCEncrypter(b, iv).CryptBlocks(out, src)
	return out
}

func refDecrypt(key *[KeySize]byte, iv, src []byte) []byte {
	b, _ := aes.NewCipher(key[:])
	out := make([]byte, len(src))
	cipher.NewCBCDecrypter(b, iv).CryptBlocks(out, src)
	return out
}

func refKeystream(key *[KeySize]byte, n int) []byte {
	b, _ := aes.NewCipher(key[:])
	out := make([]byte, n)
	cipher.NewCTR(b, make([]byte, BlockSize)).XORKeyStream(out, out)
	return out
}

// refGMAC is the first eight bytes of crypto/cipher's GCM tag of data
// under a 16-byte nonce, an empty plaintext.
func refGMAC(key *[KeySize]byte, iv, data []byte) uint64 {
	b, _ := aes.NewCipher(key[:])
	aead, _ := cipher.NewGCMWithNonceSize(b, BlockSize)
	return binary.BigEndian.Uint64(aead.Seal(nil, iv, nil, data))
}

func randKey(r *rand.Rand) *[KeySize]byte {
	var k [KeySize]byte
	r.Read(k[:])
	return &k
}

// unaligned returns n random bytes starting at an odd offset into a
// larger allocation, so no kernel can lean on 16-byte alignment.
func unaligned(r *rand.Rand, n int) []byte {
	off := 1 + r.Intn(15)
	buf := make([]byte, n+16)
	r.Read(buf)
	return buf[off : off+n : off+n]
}

// tier is one kernel tier a test can select: use switches the package
// to it and returns the switch back.
type tier struct {
	name  string
	avail bool
	use   func() (restore func())
}

// tiers runs f as one subtest (or benchmark arm) per kernel tier this
// build has, so a host with the 512-bit tier still exercises the XMM
// kernels; a tier the host lacks is a skipped subtest under its name.
func tiers[T interface {
	Run(string, func(T)) bool
	Skipf(string, ...any)
}](t T, f func(t T)) {
	for _, k := range kernelTiers() {
		t.Run(k.name, func(t T) {
			if !k.avail {
				t.Skipf("tier %s: not on this host", k.name)
			}
			defer k.use()()
			f(t)
		})
	}
}

// kernelLengths: under, at and over one eight-block and one 32-block
// group (the two tiers' group sizes), both tiers' overlaid tails, and
// the volume's 4 080 and 4 096.
var kernelLengths = []int{16, 32, 48, 112, 128, 144, 240, 256, 272, 496, 512, 528, 1008, 1024, 4080, 4096}

// wideLengths are just below and at the sixteen-lane kernel's minimum
// (twice the 512-byte skew between its halves), and the data field.
var wideLengths = []int{1008, 1024, 4080}

// boundaryBlocks are the block counts around the 512-bit tier's groups.
var boundaryBlocks = []int{31, 32, 33, 63, 64, 255}

// TestKernelEncryptMatchesStdlib drives EncryptCBC across lane counts
// on both sides of every group boundary (1-17), every length class of
// kernelLengths, with a different key per lane, some lanes in place,
// all slices unaligned, on every tier.
func TestKernelEncryptMatchesStdlib(t *testing.T) { tiers(t, testEncryptMatchesStdlib) }

func testEncryptMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for lanes := 1; lanes <= 17; lanes++ {
		for _, n := range kernelLengths {
			batch := make([]Lane, lanes)
			keys := make([]*[KeySize]byte, lanes)
			for i := range batch {
				keys[i] = randKey(r)
				src, iv := unaligned(r, n), unaligned(r, BlockSize)
				dst := unaligned(r, n)
				if i%3 == 2 {
					dst = src // in place
				}
				batch[i] = Lane{Key: NewSchedule(keys[i]), Dst: dst, Src: src, IV: iv}
			}
			checkEncrypt(t, batch, keys, fmt.Sprintf("lanes=%d n=%d", lanes, n))
		}
	}
}

// TestKernelSharedKeyLanes is the SealMany shape: one schedule on
// every lane, on every tier — unaligned, and in the sealed-block slabs
// the sixteen-lane kernel runs on, for one to two wide groups and one
// lane more.
func TestKernelSharedKeyLanes(t *testing.T) { tiers(t, testSharedKeyLanes) }

func testSharedKeyLanes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	key := randKey(r)
	ks := NewSchedule(key)
	keys := slices.Repeat([]*[KeySize]byte{key}, 2*WideLanes+1)
	for lanes := 1; lanes <= 2*WideLanes+1; lanes++ {
		batch := make([]Lane, lanes)
		for i := range batch {
			batch[i] = Lane{Key: ks, Dst: unaligned(r, 4080), Src: unaligned(r, 4080), IV: unaligned(r, BlockSize)}
		}
		checkEncrypt(t, batch, keys, fmt.Sprintf("lanes=%d unaligned", lanes))
		for _, n := range wideLengths {
			for _, inPlace := range []bool{false, true} {
				batch := slabLanes(r, ks, lanes, n, inPlace)
				checkEncrypt(t, batch, keys, fmt.Sprintf("lanes=%d n=%d in place=%v", lanes, n, inPlace))
			}
		}
	}
}

// checkEncrypt runs EncryptCBC on batch and holds every lane to
// crypto/cipher under keys[i], the key of lane i's schedule; sources
// are copied first, as an in-place lane overwrites its own.
func checkEncrypt(t *testing.T, batch []Lane, keys []*[KeySize]byte, what string) {
	t.Helper()
	want := make([][]byte, len(batch))
	for i := range batch {
		want[i] = refEncrypt(keys[i], batch[i].IV, batch[i].Src)
	}
	if err := EncryptCBC(batch); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i].Dst, want[i]) {
			t.Fatalf("%s: lane %d differs from cipher.NewCBCEncrypter", what, i)
		}
	}
}

// TestKernelDecryptMatchesStdlib covers every block count up to three
// eight-block groups (each tail shape of the overlaid last group), the
// 512-bit tier's boundaries and the volume's sizes, on 50 random keys
// and every tier. One source per key starts at offset 0 of its
// allocation: the first group's IV lane must not read before it.
func TestKernelDecryptMatchesStdlib(t *testing.T) { tiers(t, testDecryptMatchesStdlib) }

func testDecryptMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var lengths []int
	for b := 1; b <= 24; b++ {
		lengths = append(lengths, b*BlockSize)
	}
	for _, b := range boundaryBlocks {
		lengths = append(lengths, b*BlockSize)
	}
	lengths = append(lengths, 1024, 4096)
	for k := 0; k < 50; k++ {
		key := randKey(r)
		ks := NewSchedule(key)
		for i, n := range lengths {
			src, iv := unaligned(r, n), unaligned(r, BlockSize)
			if i == k%len(lengths) {
				src = make([]byte, n)
				r.Read(src)
			}
			dst := unaligned(r, n)
			if err := ks.DecryptCBC(dst, src, iv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, refDecrypt(key, iv, src)) {
				t.Fatalf("key %d n=%d: differs from cipher.NewCBCDecrypter", k, n)
			}
		}
	}
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKernelNISTVectors: SP 800-38A F.2.5 (CBC-AES256.Encrypt) and
// F.2.6 (CBC-AES256.Decrypt), on every tier.
func TestKernelNISTVectors(t *testing.T) { tiers(t, testNISTVectors) }

func testNISTVectors(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], unhex(t, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"))
	iv := unhex(t, "000102030405060708090a0b0c0d0e0f")
	plain := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+"f69f2445df4f9b17ad2b417be66c3710")
	ciph := unhex(t, "f58c4c04d6e5f1ba779eabfb5f7bfbd6"+"9cfc4e967edb808d679f777bc6702c7d"+
		"39f23369a9d9bacfa530e26304231461"+"b2eb05e2c39be9fcda6c19078c6a9d1b")
	ks := NewSchedule(&key)

	got := make([]byte, len(plain))
	if err := EncryptCBC([]Lane{{Key: ks, Dst: got, Src: plain, IV: iv}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ciph) {
		t.Errorf("F.2.5 one lane: got %x", got)
	}
	// The same vector on every lane of a full group.
	batch := make([]Lane, MaxLanes)
	for i := range batch {
		batch[i] = Lane{Key: ks, Dst: make([]byte, len(plain)), Src: plain, IV: iv}
	}
	if err := EncryptCBC(batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i].Dst, ciph) {
			t.Errorf("F.2.5 lane %d of 8: got %x", i, batch[i].Dst)
		}
	}
	if err := ks.DecryptCBC(got, ciph, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("F.2.6: got %x", got)
	}
}

// TestKernelWrappersRejectBadInput: a malformed call is an error
// before any kernel runs, never a fault, and touches no buffer.
func TestKernelWrappersRejectBadInput(t *testing.T) {
	ks := NewSchedule(new([KeySize]byte))
	iv := make([]byte, BlockSize)
	buf := make([]byte, 256)
	lane := func(dst, src, iv []byte) []Lane { return []Lane{{Key: ks, Dst: dst, Src: src, IV: iv}} }

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"decrypt empty", ks.DecryptCBC(nil, nil, iv), ErrLength},
		{"decrypt ragged", ks.DecryptCBC(make([]byte, 20), make([]byte, 20), iv), ErrLength},
		{"decrypt dst short", ks.DecryptCBC(make([]byte, 16), make([]byte, 32), iv), ErrLength},
		{"decrypt short iv", ks.DecryptCBC(make([]byte, 16), make([]byte, 16), iv[:8]), ErrLength},
		{"decrypt in place", ks.DecryptCBC(buf[:64], buf[:64], iv), ErrOverlap},
		{"decrypt shifted", ks.DecryptCBC(buf[16:80], buf[:64], iv), ErrOverlap},
		{"encrypt empty lane", EncryptCBC(lane(nil, nil, iv)), ErrLength},
		{"encrypt ragged", EncryptCBC(lane(make([]byte, 24), make([]byte, 24), iv)), ErrLength},
		{"encrypt dst short", EncryptCBC(lane(make([]byte, 16), make([]byte, 32), iv)), ErrLength},
		{"encrypt short iv", EncryptCBC(lane(make([]byte, 16), make([]byte, 16), iv[:15])), ErrLength},
		{"encrypt shifted", EncryptCBC(lane(buf[16:80], buf[:64], iv)), ErrOverlap},
		{"lanes unequal", EncryptCBC([]Lane{
			{Key: ks, Dst: make([]byte, 32), Src: make([]byte, 32), IV: iv},
			{Key: ks, Dst: make([]byte, 48), Src: make([]byte, 48), IV: iv},
		}), ErrLength},
		{"lanes share dst", EncryptCBC([]Lane{
			{Key: ks, Dst: buf[:32], Src: make([]byte, 32), IV: iv},
			{Key: ks, Dst: buf[16:48], Src: make([]byte, 32), IV: iv},
		}), ErrOverlap},
		{"lane dst over other src", EncryptCBC([]Lane{
			{Key: ks, Dst: make([]byte, 32), Src: buf[:32], IV: iv},
			{Key: ks, Dst: buf[:32], Src: make([]byte, 32), IV: iv},
		}), ErrOverlap},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.err, c.want)
		}
	}
	if err := EncryptCBC([]Lane{{Dst: make([]byte, 16), Src: make([]byte, 16), IV: iv}}); err == nil {
		t.Error("lane without a key accepted")
	}
	if err := EncryptCBC(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("a rejected call wrote to its buffers")
	}
}

// TestKernelKeystreamMatchesCTR: the keystream is cipher.NewCTR's, and
// being addressed by position it does not care how a range is cut, on
// every tier.
func TestKernelKeystreamMatchesCTR(t *testing.T) { tiers(t, testKeystreamMatchesCTR) }

func testKeystreamMatchesCTR(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	key := randKey(r)
	ks := NewSchedule(key)
	const total = 3*4096 + 77
	want := refKeystream(key, total)

	whole := unaligned(r, total)
	ks.Keystream(whole, 0)
	if !bytes.Equal(whole, want) {
		t.Fatal("one call differs from cipher.NewCTR")
	}
	// Random chunking, block-aligned or not, in any order of sizes.
	got := make([]byte, total)
	for pos := 0; pos < total; {
		n := min(1+r.Intn(700), total-pos)
		ks.Keystream(got[pos:pos+n], uint64(pos))
		pos += n
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked calls differ from one call")
	}
	// Every block count around the eight-block group, at every offset
	// inside a block.
	for n := 0; n <= 20*BlockSize; n += 7 {
		for _, pos := range []int{0, 1, 15, 16, 100} {
			chunk := make([]byte, n)
			ks.Keystream(chunk, uint64(pos))
			if !bytes.Equal(chunk, want[pos:pos+n]) {
				t.Fatalf("Keystream(%d bytes at %d) differs", n, pos)
			}
		}
	}
	// The 512-bit tier's boundaries, whole and from offsets inside a
	// block (whose whole-block middle is one block short).
	for _, b := range boundaryBlocks {
		for _, pos := range []int{0, 1, 15, 16, 100, 4095} {
			for _, n := range []int{b * BlockSize, b*BlockSize + 1} {
				chunk := unaligned(r, n)
				ks.Keystream(chunk, uint64(pos))
				if !bytes.Equal(chunk, want[pos:pos+n]) {
					t.Fatalf("Keystream(%d bytes at %d) differs", n, pos)
				}
			}
		}
	}
}

// TestGMACMatchesStdlib holds Mask ⊕ Hash to crypto/cipher's GCM tag,
// and Mask alone to the tag of no data, for every length to 600 (each
// tail shape of a 32-block group, with and without a whole group before
// it), a few more groups, the slot's tagged field (4 072) and the data
// field (4 080), on random keys, nonces and unaligned data, on every
// tier.
func TestGMACMatchesStdlib(t *testing.T) { tiers(t, testGMACMatchesStdlib) }

func testGMACMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	lengths := []int{1023, 1024, 1536, 4072, 4080}
	for n := 0; n <= 600; n++ {
		lengths = append(lengths, n)
	}
	key := randKey(r)
	g := NewGMAC(key)
	for i, n := range lengths {
		if i%50 == 0 {
			key = randKey(r)
			g = NewGMAC(key)
		}
		iv := (*[BlockSize]byte)(unaligned(r, BlockSize))
		data := unaligned(r, n)
		if got, want := g.Mask(iv)^g.Hash(data), refGMAC(key, iv[:], data); got != want {
			t.Fatalf("n=%d: Mask ⊕ Hash = %016x, crypto/cipher tag %016x", n, got, want)
		}
		if got, want := g.Mask(iv), refGMAC(key, iv[:], nil); got != want {
			t.Fatalf("Mask = %016x, crypto/cipher tag of no data %016x", got, want)
		}
	}
	iv := new([BlockSize]byte)
	if got, want := g.Mask(iv)^g.Hash(nil), refGMAC(key, iv[:], nil); got != want {
		t.Fatalf("nil data: %016x, want %016x", got, want)
	}
}

// TestKernelZeroAlloc: the primitives allocate nothing, on any tier —
// on a host whose RSS tracks garbage, a per-call allocation is a
// regression.
func TestKernelZeroAlloc(t *testing.T) { tiers(t, testZeroAlloc) }

func testZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ks := NewSchedule(randKey(r))
	src, dst, iv := make([]byte, 4080), make([]byte, 4080), make([]byte, BlockSize)
	var batch [MaxLanes]Lane
	for i := range batch {
		batch[i] = Lane{Key: ks, Dst: make([]byte, 4080), Src: src, IV: iv}
	}
	wide := slabLanes(r, ks, WideLanes, 4080, false)
	g := NewGMAC(randKey(r))
	run := func() {
		if err := ks.DecryptCBC(dst, src, iv); err != nil {
			t.Fatal(err)
		}
		if err := EncryptCBC(wide); err != nil {
			t.Fatal(err)
		}
		if err := EncryptCBC(batch[:]); err != nil {
			t.Fatal(err)
		}
		if err := EncryptCBC(batch[:1]); err != nil {
			t.Fatal(err)
		}
		ks.Keystream(dst[:4077], 3)
		g.Mask((*[BlockSize]byte)(iv))
		g.Hash(src[8:])
	}
	run() // warm the stdlib path's pool
	if a := testing.AllocsPerRun(50, run); a > 0 {
		t.Errorf("%.1f allocs per decrypt + 16-lane + 8-lane + 1-lane + keystream + GMAC mask and hash, want 0", a)
	}
}

// FuzzKernelMatchesStdlib cuts arbitrary bytes into keys, IVs, lane
// count and length and holds all three primitives, and GMAC over the
// fuzzer's bytes and over a lane, to crypto/cipher on every tier. The
// wide path gets 9-16 lanes under one key in sealed-block slabs, in
// place and apart, at the fuzzer's length and at and just below the
// sixteen-lane kernel's minimum, and the same group with its last lane
// under another key.
func FuzzKernelMatchesStdlib(f *testing.F) {
	f.Add([]byte("seed"), uint8(3), uint16(5), uint16(9))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(8), uint16(255), uint16(4096))
	f.Add([]byte{}, uint8(17), uint16(1), uint16(0))
	f.Add([]byte("tier"), uint8(2), uint16(32), uint16(17))
	f.Add([]byte("wide"), uint8(7), uint16(63), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, lanes uint8, blocks uint16, pos uint16) {
		tiers(t, func(t *testing.T) { fuzzKernelMatchesStdlib(t, data, lanes, blocks, pos) })
	})
}

func fuzzKernelMatchesStdlib(t *testing.T, data []byte, lanes uint8, blocks uint16, pos uint16) {
	nl := int(lanes)%17 + 1
	n := (int(blocks)%300 + 1) * BlockSize
	seed := int64(len(data))
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	r := rand.New(rand.NewSource(seed))
	batch := make([]Lane, nl)
	keys := make([]*[KeySize]byte, nl)
	want := make([][]byte, nl)
	for i := range batch {
		keys[i] = randKey(r)
		copy(keys[i][:], data) // the fuzzer steers key bytes directly
		src, iv := unaligned(r, n), unaligned(r, BlockSize)
		want[i] = refEncrypt(keys[i], iv, src)
		batch[i] = Lane{Key: NewSchedule(keys[i]), Dst: unaligned(r, n), Src: src, IV: iv}
	}
	if err := EncryptCBC(batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i].Dst, want[i]) {
			t.Fatalf("encrypt lane %d/%d of %d bytes differs", i, nl, n)
		}
		back := make([]byte, n)
		if err := batch[i].Key.DecryptCBC(back, batch[i].Dst, batch[i].IV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, batch[i].Src) || !bytes.Equal(back, refDecrypt(keys[i], batch[i].IV, batch[i].Dst)) {
			t.Fatalf("decrypt lane %d of %d bytes differs", i, n)
		}
	}
	nw := 9 + int(lanes)%8
	wideKeys := slices.Repeat([]*[KeySize]byte{keys[0]}, nw)
	other := randKey(r)
	mixedKeys := append(wideKeys[:nw-1:nw-1], other)
	for _, wn := range []int{n, wideLengths[0], wideLengths[1]} {
		for _, inPlace := range []bool{false, true} {
			what := fmt.Sprintf("%d lanes of %d bytes, in place %v", nw, wn, inPlace)
			checkEncrypt(t, slabLanes(r, batch[0].Key, nw, wn, inPlace), wideKeys, "one key, "+what)
			mixed := slabLanes(r, batch[0].Key, nw, wn, inPlace)
			mixed[nw-1].Key = NewSchedule(other)
			checkEncrypt(t, mixed, mixedKeys, "two keys, "+what)
		}
	}

	stream := make([]byte, n-1)
	batch[0].Key.Keystream(stream, uint64(pos))
	if !bytes.Equal(stream, refKeystream(keys[0], int(pos)+n-1)[pos:]) {
		t.Fatalf("keystream of %d bytes at %d differs", n-1, pos)
	}
	g := NewGMAC(keys[0])
	iv := (*[BlockSize]byte)(batch[0].IV)
	for _, msg := range [][]byte{data, batch[0].Dst[int(pos)%n:]} {
		if got, want := g.Mask(iv)^g.Hash(msg), refGMAC(keys[0], iv[:], msg); got != want {
			t.Fatalf("GMAC of %d bytes = %016x, crypto/cipher %016x", len(msg), got, want)
		}
	}
}

// Benchmarks for iterating on the kernels, at the volume's geometry
// (4 KiB blocks, 4 080-byte data field). The multi-block primitives
// have one arm per kernel tier (xmm, vaes512; purego or generic off
// amd64) and a stdlib arm: the fresh-mode construction the kernels
// replace.

func benchLanes(r *rand.Rand, n int, sameKey bool) ([]Lane, []cipher.Block) {
	batch, blks := make([]Lane, n), make([]cipher.Block, n)
	key := randKey(r)
	for i := range batch {
		if !sameKey {
			key = randKey(r)
		}
		blks[i], _ = aes.NewCipher(key[:])
		batch[i] = Lane{Key: NewSchedule(key), Dst: make([]byte, 4080), Src: make([]byte, 4080), IV: make([]byte, BlockSize)}
	}
	return batch, blks
}

// slabLanes returns lanes of n bytes under ks laid out as the
// oblivious store's window lays out a seal batch, both slabs carved as
// blockdev.AllocBlocks carves them: each lane's IV opens a block of a
// slab of 4 KiB blocks (more for a longer lane) and its destination
// follows the IV; its source is the lane's n-byte record in a second
// slab, or the destination itself when inPlace. Sources and IVs are
// random.
func slabLanes(r *rand.Rand, ks *Schedule, lanes, n int, inPlace bool) []Lane {
	stride := (n + BlockSize + 4095) &^ 4095
	blocks, recs := make([]byte, lanes*stride), make([]byte, lanes*n)
	r.Read(blocks)
	r.Read(recs)
	batch := make([]Lane, lanes)
	for i := range batch {
		block := blocks[i*stride:]
		dst, src := block[BlockSize:BlockSize+n:BlockSize+n], recs[i*n:(i+1)*n:(i+1)*n]
		if inPlace {
			src = dst
		}
		batch[i] = Lane{Key: ks, Dst: dst, Src: src, IV: block[:BlockSize:BlockSize]}
	}
	return batch
}

// stdlibEncrypt is EncryptCBC with a fresh crypto/cipher mode per lane.
func stdlibEncrypt(batch []Lane, blks []cipher.Block) {
	for i := range batch {
		l := &batch[i]
		cipher.NewCBCEncrypter(blks[i], l.IV).CryptBlocks(l.Dst, l.Src)
	}
}

func BenchmarkOpen(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	key := randKey(r)
	ks := NewSchedule(key)
	src, dst, iv := make([]byte, 4080), make([]byte, 4080), make([]byte, BlockSize)
	tiers(b, func(b *testing.B) {
		b.SetBytes(4080)
		for i := 0; i < b.N; i++ {
			ks.DecryptCBC(dst, src, iv) //nolint:errcheck // fixed valid shape
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		blk, _ := aes.NewCipher(key[:])
		b.SetBytes(4080)
		for i := 0; i < b.N; i++ {
			cipher.NewCBCDecrypter(blk, iv).CryptBlocks(dst, src)
		}
	})
}

// BenchmarkSeal is one lane, which every tier runs on the XMM
// single-chain loop.
func BenchmarkSeal(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	batch, blks := benchLanes(r, 1, true)
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(4080)
		for i := 0; i < b.N; i++ {
			EncryptCBC(batch) //nolint:errcheck // fixed valid shape
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(4080)
		for i := 0; i < b.N; i++ {
			stdlibEncrypt(batch, blks)
		}
	})
}

func BenchmarkSealMany8(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	for _, arm := range []struct {
		name    string
		sameKey bool
	}{{"one-key", true}, {"mixed-keys", false}} {
		batch, blks := benchLanes(r, 8, arm.sameKey)
		b.Run(arm.name, func(b *testing.B) {
			tiers(b, func(b *testing.B) {
				b.SetBytes(8 * 4080)
				for i := 0; i < b.N; i++ {
					EncryptCBC(batch) //nolint:errcheck // fixed valid shape
				}
			})
			b.Run("stdlib", func(b *testing.B) {
				b.SetBytes(8 * 4080)
				for i := 0; i < b.N; i++ {
					stdlibEncrypt(batch, blks)
				}
			})
		})
	}
}

// BenchmarkSealMany16 is a full wide group in the reshuffle's layout
// (slabLanes). The eights arm runs the same lanes as two groups of
// eight.
func BenchmarkSealMany16(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	batch := slabLanes(r, NewSchedule(randKey(r)), WideLanes, 4080, false)
	tiers(b, func(b *testing.B) {
		b.SetBytes(WideLanes * 4080)
		for i := 0; i < b.N; i++ {
			EncryptCBC(batch) //nolint:errcheck // fixed valid shape
		}
	})
	b.Run("eights", func(b *testing.B) {
		b.SetBytes(WideLanes * 4080)
		for i := 0; i < b.N; i++ {
			EncryptCBC(batch[:MaxLanes]) //nolint:errcheck // fixed valid shape
			EncryptCBC(batch[MaxLanes:]) //nolint:errcheck // fixed valid shape
		}
	})
}

func BenchmarkResealMany64(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	batch, blks := benchLanes(r, 64, false)
	tiers(b, func(b *testing.B) {
		b.SetBytes(64 * 4080)
		for i := 0; i < b.N; i++ {
			for j := range batch {
				l := &batch[j]
				l.Key.DecryptCBC(l.Src, l.Dst, l.IV) //nolint:errcheck // fixed valid shape
			}
			EncryptCBC(batch) //nolint:errcheck // fixed valid shape
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(64 * 4080)
		for i := 0; i < b.N; i++ {
			for j := range batch {
				l := &batch[j]
				cipher.NewCBCDecrypter(blks[j], l.IV).CryptBlocks(l.Src, l.Dst)
			}
			stdlibEncrypt(batch, blks)
		}
	})
}

func BenchmarkFill4K(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	key := randKey(r)
	ks := NewSchedule(key)
	buf := make([]byte, 4096)
	tiers(b, func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			ks.Keystream(buf, uint64(i)*4096)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		blk, _ := aes.NewCipher(key[:])
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			cipher.NewCTR(blk, batch0IV[:]).XORKeyStream(buf, buf)
		}
	})
}

// BenchmarkGMAC4072 is one slot tag: Mask ⊕ Hash over the slot's
// 4 072-byte tagged field, against crypto/cipher's GCM.
func BenchmarkGMAC4072(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	key := randKey(r)
	data, iv := make([]byte, 4072), new([BlockSize]byte)
	r.Read(data)
	tiers(b, func(b *testing.B) {
		g := NewGMAC(key)
		b.SetBytes(4072)
		for i := 0; i < b.N; i++ {
			g.Mask(iv)
			g.Hash(data)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		blk, _ := aes.NewCipher(key[:])
		aead, _ := cipher.NewGCMWithNonceSize(blk, BlockSize)
		out := make([]byte, 0, BlockSize)
		b.SetBytes(4072)
		for i := 0; i < b.N; i++ {
			aead.Seal(out[:0], iv[:], nil, data)
		}
	})
}

// BenchmarkGMACMask is the tag of no data: what a merge pass pays per
// slot for the tag once the hash is carried.
func BenchmarkGMACMask(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	key := randKey(r)
	iv := new([BlockSize]byte)
	tiers(b, func(b *testing.B) {
		g := NewGMAC(key)
		for i := 0; i < b.N; i++ {
			g.Mask(iv)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		blk, _ := aes.NewCipher(key[:])
		aead, _ := cipher.NewGCMWithNonceSize(blk, BlockSize)
		out := make([]byte, 0, BlockSize)
		for i := 0; i < b.N; i++ {
			aead.Seal(out[:0], iv[:], nil, nil)
		}
	})
}

var batch0IV [BlockSize]byte
