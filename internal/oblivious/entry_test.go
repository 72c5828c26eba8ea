package oblivious

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"steghide/internal/prng"
	"steghide/internal/sealer"
)

func newTestCodec(t *testing.T, blockSize int) *codec {
	t.Helper()
	c, err := newCodec(sealer.DeriveKey([]byte("k"), "codec"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encode seals e into a full raw slot under the given IV.
func (c *codec) encode(dst []byte, e *entry, iv []byte, fill func([]byte)) error {
	payload := make([]byte, c.payload)
	if err := c.put(payload, e, fill); err != nil {
		return err
	}
	return c.sealMany([][]byte{dst}, [][]byte{payload}, func(b []byte) { copy(b, iv) })
}

// decode opens a raw slot into a fresh entry.
func (c *codec) decode(raw []byte) (*entry, error) {
	e := new(entry)
	if err := c.decodeInto(e, raw); err != nil {
		return nil, err
	}
	return e, nil
}

func TestCodecRoundTripReal(t *testing.T) {
	c := newTestCodec(t, 128)
	rng := prng.NewFromUint64(1)
	e := &entry{
		real:    true,
		version: 42,
		nonce:   777,
		id:      BlockID{File: 3, Index: 9},
		value:   rng.Bytes(c.valueLen),
	}
	raw := make([]byte, 128)
	if err := c.encode(raw, e, rng.Bytes(sealer.IVSize), func(p []byte) { rng.Read(p) }); err != nil {
		t.Fatal(err)
	}
	got, err := c.decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.real || got.version != 42 || got.nonce != 777 || got.id != e.id {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if !bytes.Equal(got.value, e.value) {
		t.Fatal("value mismatch")
	}
}

func TestCodecRoundTripDummy(t *testing.T) {
	c := newTestCodec(t, 128)
	rng := prng.NewFromUint64(2)
	e := &entry{nonce: 5, lowClass: true}
	raw := make([]byte, 128)
	if err := c.encode(raw, e, rng.Bytes(sealer.IVSize), func(p []byte) { rng.Read(p) }); err != nil {
		t.Fatal(err)
	}
	got, err := c.decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.real || !got.lowClass || got.nonce != 5 {
		t.Fatalf("dummy metadata mismatch: %+v", got)
	}
	if got.value != nil {
		t.Fatal("dummy carried a value")
	}
}

func TestCodecRejectsWrongValueSize(t *testing.T) {
	c := newTestCodec(t, 128)
	e := &entry{real: true, value: make([]byte, 3)}
	raw := make([]byte, 128)
	iv := make([]byte, sealer.IVSize)
	if err := c.encode(raw, e, iv, func([]byte) {}); !errors.Is(err, ErrValueSize) {
		t.Fatalf("short value: %v", err)
	}
}

func TestCodecDetectsTamperAndWrongKey(t *testing.T) {
	c := newTestCodec(t, 128)
	rng := prng.NewFromUint64(3)
	e := &entry{real: true, nonce: 1, id: BlockID{1, 2}, value: rng.Bytes(c.valueLen)}
	raw := make([]byte, 128)
	if err := c.encode(raw, e, rng.Bytes(sealer.IVSize), func(p []byte) { rng.Read(p) }); err != nil {
		t.Fatal(err)
	}
	// Bit flip anywhere in the ciphertext must fail the checksum.
	bad := append([]byte(nil), raw...)
	bad[40] ^= 0x01
	if _, err := c.decode(bad); !errors.Is(err, ErrCorruptSlot) {
		t.Fatalf("tampered slot: %v", err)
	}
	// A different key cannot decode the slot.
	other, err := newCodec(sealer.DeriveKey([]byte("other"), "codec"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.decode(raw); !errors.Is(err, ErrCorruptSlot) {
		t.Fatalf("wrong key: %v", err)
	}
}

// TestSlotTagBindsIV reseals a valid slot's payload, old tag included,
// under a fresh IV: the tag's nonce is the IV, so the slot no longer
// opens. (A tag over the payload alone would accept it.)
func TestSlotTagBindsIV(t *testing.T) {
	c := newTestCodec(t, 128)
	rng := prng.NewFromUint64(4)
	e := &entry{real: true, nonce: 1, id: BlockID{1, 2}, value: rng.Bytes(c.valueLen)}
	raw := make([]byte, 128)
	if err := c.encode(raw, e, rng.Bytes(sealer.IVSize), func(p []byte) { rng.Read(p) }); err != nil {
		t.Fatal(err)
	}
	var got entry
	if err := c.decodeInto(&got, raw); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, c.payload)
	if err := c.seal.Open(payload, raw); err != nil {
		t.Fatal(err)
	}
	fresh := rng.Bytes(sealer.IVSize)
	if err := c.seal.SealMany([][]byte{raw}, func(iv []byte) { copy(iv, fresh) }, [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	if err := c.decodeInto(&got, raw); !errors.Is(err, ErrCorruptSlot) {
		t.Fatalf("payload resealed under a fresh IV with its old tag: %v, want ErrCorruptSlot", err)
	}
}

func TestCodecMinimumGeometry(t *testing.T) {
	if _, err := newCodec(sealer.DeriveKey([]byte("k"), "g"), 64); err == nil {
		t.Fatal("64-byte slots leave no value room but were accepted")
	}
	c := newTestCodec(t, 96)
	if c.valueLen != 96-16-entryMetaSize {
		t.Fatalf("value len %d", c.valueLen)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	c := newTestCodec(t, 160)
	f := func(seed, file, index, nonce, version uint64, lowClass bool) bool {
		rng := prng.NewFromUint64(seed)
		e := &entry{
			real:     true,
			lowClass: lowClass,
			version:  version,
			nonce:    nonce,
			id:       BlockID{File: file, Index: index},
			value:    rng.Bytes(c.valueLen),
		}
		raw := make([]byte, 160)
		if err := c.encode(raw, e, rng.Bytes(sealer.IVSize), func(p []byte) { rng.Read(p) }); err != nil {
			return false
		}
		got, err := c.decode(raw)
		if err != nil {
			return false
		}
		return got.real == e.real && got.lowClass == e.lowClass &&
			got.version == e.version && got.nonce == e.nonce &&
			got.id == e.id && bytes.Equal(got.value, e.value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
