package kv

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestVLongRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 112, -112, 127, 128, -113, 255, 256, -129,
		1 << 20, -(1 << 20), math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		enc := AppendVLong(nil, v)
		if len(enc) != VLongSize(v) {
			t.Errorf("VLongSize(%d) = %d, encoded %d bytes", v, VLongSize(v), len(enc))
		}
		got, n, err := ReadVLong(enc)
		if err != nil || got != v || n != len(enc) {
			t.Errorf("ReadVLong(%d): got %d, n=%d, err=%v", v, got, n, err)
		}
	}
}

func TestVLongPropertyRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendVLong(nil, v)
		got, n, err := ReadVLong(enc)
		return err == nil && got == v && n == len(enc) && len(enc) == VLongSize(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVLongHadoopCompatibleSingleByteRange(t *testing.T) {
	// Hadoop stores -112..127 in one byte equal to the value itself.
	for v := int64(-112); v <= 127; v++ {
		enc := AppendVLong(nil, v)
		if len(enc) != 1 || int8(enc[0]) != int8(v) {
			t.Fatalf("VLong(%d) = % x, want single byte", v, enc)
		}
	}
}

func TestVLongKnownEncodings(t *testing.T) {
	// Reference vectors from Hadoop's WritableUtils.
	cases := []struct {
		v   int64
		enc []byte
	}{
		{128, []byte{0x8f, 0x80}},           // -113, then 128
		{-113, []byte{0x87, 0x70}},          // -121, then 112 (=-(-113)-1)
		{4096, []byte{0x8e, 0x10, 0x00}},    // -114, two bytes
		{-4097, []byte{0x86, 0x10, 0x00}},   // -122, two bytes of 4096
		{1 << 24, []byte{0x8c, 1, 0, 0, 0}}, // -116, four bytes
	}
	for _, c := range cases {
		got := AppendVLong(nil, c.v)
		if !bytes.Equal(got, c.enc) {
			t.Errorf("VLong(%d) = % x, want % x", c.v, got, c.enc)
		}
	}
}

func TestVLongTruncated(t *testing.T) {
	enc := AppendVLong(nil, 1<<40)
	for i := 0; i < len(enc); i++ {
		if _, _, err := ReadVLong(enc[:i]); err == nil {
			t.Errorf("ReadVLong of %d/%d bytes succeeded", i, len(enc))
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", string(make([]byte, 5000))} {
		enc := AppendBytes(nil, []byte(s))
		if len(enc) != BytesSize([]byte(s)) {
			t.Errorf("BytesSize(%q) = %d, encoded %d", s, BytesSize([]byte(s)), len(enc))
		}
		got, n, err := ReadBytes(enc)
		if err != nil || string(got) != s || n != len(enc) {
			t.Errorf("ReadBytes(%q): %q, n=%d, err=%v", s, got, n, err)
		}
	}
}

func TestReadBytesTruncated(t *testing.T) {
	enc := AppendBytes(nil, []byte("hello"))
	if _, _, err := ReadBytes(enc[:3]); err == nil {
		t.Error("truncated ReadBytes succeeded")
	}
	if _, _, err := ReadBytes(nil); err == nil {
		t.Error("empty ReadBytes succeeded")
	}
}

func TestPairRoundTrip(t *testing.T) {
	p := P("the-key", "the-value")
	enc := AppendPair(nil, p)
	if len(enc) != PairSize(p) {
		t.Errorf("PairSize = %d, encoded %d", PairSize(p), len(enc))
	}
	got, n, err := ReadPair(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("ReadPair: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got.Key, p.Key) || !bytes.Equal(got.Value, p.Value) {
		t.Errorf("ReadPair = %v, want %v", got, p)
	}
}

func TestPairPropertyRoundTrip(t *testing.T) {
	f := func(key, value []byte) bool {
		p := Pair{Key: key, Value: value}
		enc := AppendPair(nil, p)
		got, n, err := ReadPair(enc)
		return err == nil && n == len(enc) &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyListRoundTrip(t *testing.T) {
	kl := KeyList{Key: []byte("word"), Values: [][]byte{[]byte("1"), []byte("2"), []byte("3")}}
	enc := AppendKeyList(nil, kl)
	if len(enc) != KeyListSize(kl) {
		t.Errorf("KeyListSize = %d, encoded %d", KeyListSize(kl), len(enc))
	}
	got, n, err := ReadKeyList(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("ReadKeyList: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got.Key, kl.Key) || len(got.Values) != 3 {
		t.Fatalf("ReadKeyList = %+v", got)
	}
	for i := range kl.Values {
		if !bytes.Equal(got.Values[i], kl.Values[i]) {
			t.Errorf("value %d = %q, want %q", i, got.Values[i], kl.Values[i])
		}
	}
}

func TestKeyListEmptyValues(t *testing.T) {
	kl := KeyList{Key: []byte("k")}
	enc := AppendKeyList(nil, kl)
	got, _, err := ReadKeyList(enc)
	if err != nil || len(got.Values) != 0 {
		t.Fatalf("empty key-list: %+v, err=%v", got, err)
	}
}

func TestCompareIsLexicographic(t *testing.T) {
	if Compare([]byte("a"), []byte("b")) >= 0 ||
		Compare([]byte("b"), []byte("a")) <= 0 ||
		Compare([]byte("ab"), []byte("ab")) != 0 ||
		Compare([]byte("a"), []byte("ab")) >= 0 {
		t.Error("Compare is not lexicographic")
	}
}

func TestPairCloneIndependence(t *testing.T) {
	orig := P("k", "v")
	cl := orig.Clone()
	orig.Key[0] = 'X'
	if cl.Key[0] != 'k' {
		t.Error("Clone shares key storage")
	}
}

func TestPairStringAndSize(t *testing.T) {
	p := P("word", "1")
	if p.String() != "word\t1" {
		t.Errorf("String = %q", p.String())
	}
	if p.Size() != 5 {
		t.Errorf("Size = %d, want 5", p.Size())
	}
	kl := KeyList{Key: []byte("ab"), Values: [][]byte{[]byte("c"), []byte("de")}}
	if kl.Size() != 5 {
		t.Errorf("KeyList.Size = %d, want 5", kl.Size())
	}
}
