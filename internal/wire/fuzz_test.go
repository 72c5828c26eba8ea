package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzLimit is the frame bound the fuzz targets run under: small
// enough that an over-allocation (a decode trusting a hostile length)
// would be caught by the post-conditions, large enough to cover real
// frames.
const fuzzLimit = 1 << 16

// FuzzFrameDecode throws arbitrary bytes at the frame reader: it must
// return a frame within the limit or an error — never panic, and
// never allocate a body the declared (possibly hostile) length asks
// for beyond the limit.
func FuzzFrameDecode(f *testing.F) {
	// Seeds: a well-formed empty frame, a bodied frame, a truncated
	// header, a truncated body, and a hostile length.
	var ok bytes.Buffer
	writeFrame(&ok, frame{Type: msgOK, ID: 7}) //nolint:errcheck
	f.Add(ok.Bytes())
	var bodied bytes.Buffer
	writeFrame(&bodied, frame{Type: msgWriteV, ID: 1, Body: []byte("hello")}) //nolint:errcheck
	f.Add(bodied.Bytes())
	f.Add([]byte{0, 0, 0, 1})
	f.Add(bodied.Bytes()[:headerSize+2])
	hostile := make([]byte, headerSize)
	binary.BigEndian.PutUint64(hostile[8:], 1<<50)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data), fuzzLimit)
		if err != nil {
			return
		}
		if uint64(len(fr.Body)) > fuzzLimit {
			t.Fatalf("frame body %d bytes exceeds the %d limit", len(fr.Body), fuzzLimit)
		}
		// A decoded frame must re-encode to the bytes it came from.
		var out bytes.Buffer
		if err := writeFrame(&out, fr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("frame does not round-trip")
		}
	})
}

// FuzzDecoder drives every body decoder over arbitrary bytes:
// u64/str/raw on truncated and hostile lengths must error (the
// decoder's sticky err), never panic, and never slice beyond the
// body. The higher-level body parsers ride along, since their inputs
// are exactly these bodies.
func FuzzDecoder(f *testing.F) {
	e := &encoder{}
	e.u64(3).str("abc").bytes([]byte{1, 2})
	f.Add(e.body())
	lying := &encoder{}
	lying.u64(1 << 40) // length prefix far beyond the body
	f.Add(lying.body())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(writeVFrame("/f", Then{Save: true}, []Segment{{Off: 3, Data: []byte("seg")}}).Body)
	f.Add(writeVFrame("/f", Then{Truncate: true, Size: 1 << 40, Save: true}, []Segment{{Off: 3, Data: []byte("seg")}}).Body)
	lyingV := &encoder{}
	lyingV.str("/f").u64(1).u64(0).u64(1 << 40) // a segment count no body can hold
	f.Add(lyingV.body())

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{b: data}
		_ = d.u64()
		s := d.str()
		r := d.raw()
		_ = d.u64()
		if d.err == nil && uint64(len(s)+len(r)) > uint64(len(data)) {
			t.Fatal("decoder returned more bytes than the body holds")
		}
		// The composite parsers over the same hostile bodies.
		decodeIndices(&decoder{b: data})
		_, _, _ = decodeHello(data)
		_ = decodeRemoteError(data)
		if _, _, segs, err := decodeWriteV(data); err == nil {
			held := 0
			for _, s := range segs {
				held += 16 + len(s.Data)
			}
			if held > len(data) {
				t.Fatalf("msgWriteV decoded %d segments holding %d bytes from a %d-byte body", len(segs), held, len(data))
			}
		}
	})
}
