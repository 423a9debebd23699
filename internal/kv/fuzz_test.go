package kv

import (
	"bytes"
	"testing"
	"unsafe"
)

// Fuzz targets for the wire decoders every shuffle path feeds received
// bytes into. The invariant is the one ROADMAP asks of every decoder:
// error, never panic, never over-read — and a successful decode re-encodes
// to exactly the bytes it consumed. Seeds live in testdata/fuzz.

// checkWithin fails when got, a slice a decoder returned, does not lie wholly
// inside b[:len(b)] — b's spare capacity is not input, and reading it is an
// over-read.
func checkWithin(t *testing.T, b, got []byte) {
	t.Helper()
	if len(got) == 0 {
		return
	}
	if len(b) == 0 {
		t.Fatalf("decoded %d bytes from empty input", len(got))
	}
	start := int(uintptr(unsafe.Pointer(&got[0])) - uintptr(unsafe.Pointer(&b[0])))
	if start < 0 || start+len(got) > len(b) {
		t.Fatalf("decoded slice [%d:%d] outside input of %d bytes", start, start+len(got), len(b))
	}
}

// tight copies b into an array with spare capacity behind it, so a decoder
// trusting cap over len has something to over-read.
func tight(b []byte) []byte {
	return append(make([]byte, 0, len(b)+8), b...)
}

func FuzzReadPair(f *testing.F) {
	f.Add(AppendPair(nil, P("key", "value")))
	f.Add(AppendPair(nil, Pair{}))
	f.Add([]byte{0x88, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // length 2^63-1
	f.Fuzz(func(t *testing.T, data []byte) {
		b := tight(data)
		p, n, err := ReadPair(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		checkWithin(t, b, p.Key)
		checkWithin(t, b, p.Value)
		if p.Size() > n {
			t.Fatalf("payload %d exceeds the %d bytes consumed", p.Size(), n)
		}
		// Hadoop's vint has redundant encodings, so compare by decoding the
		// canonical re-encoding rather than byte for byte.
		q, _, err := ReadPair(AppendPair(nil, p))
		if err != nil || !bytes.Equal(p.Key, q.Key) || !bytes.Equal(p.Value, q.Value) {
			t.Fatalf("round trip: %q/%q -> %q/%q (%v)", p.Key, p.Value, q.Key, q.Value, err)
		}
	})
}

func FuzzReadKeyList(f *testing.F) {
	f.Add(AppendKeyList(nil, KeyList{Key: []byte("k"), Values: [][]byte{[]byte("v1"), {}, []byte("v3")}}))
	f.Add(AppendKeyList(nil, KeyList{}))
	f.Add([]byte{1, 'k', 0x8C, 0x7F, 0xFF, 0xFF, 0xFF})                         // count 2^31-1, no values
	f.Add([]byte{1, 'k', 0x88, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // count 2^63-1
	f.Add([]byte{0, 0x87, 0x05})                                                // count -6
	f.Fuzz(func(t *testing.T, data []byte) {
		b := tight(data)
		kl, n, err := ReadKeyList(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// A list longer than its bytes could carry means the count
		// bound failed to hold the allocation down.
		if len(kl.Values) > n {
			t.Fatalf("%d values decoded from %d bytes", len(kl.Values), n)
		}
		checkWithin(t, b, kl.Key)
		for _, v := range kl.Values {
			checkWithin(t, b, v)
		}
		got, _, err := ReadKeyList(AppendKeyList(nil, kl))
		if err != nil || !bytes.Equal(got.Key, kl.Key) || len(got.Values) != len(kl.Values) {
			t.Fatalf("round trip of %d-value list for %q failed: %v", len(kl.Values), kl.Key, err)
		}
		for i := range got.Values {
			if !bytes.Equal(got.Values[i], kl.Values[i]) {
				t.Fatalf("round trip value %d: %q vs %q", i, got.Values[i], kl.Values[i])
			}
		}
	})
}
