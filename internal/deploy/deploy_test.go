package deploy

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"rt3/internal/pattern"
)

func sampleBundle(seed int64) *Bundle {
	rng := rand.New(rand.NewSource(seed))
	w := WeightMatrix{Name: "enc.0.wq.W", Rows: 4, Cols: 6, Data: make([]float64, 24)}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	return &Bundle{
		Weights:    []WeightMatrix{w},
		Sets:       []*pattern.Set{pattern.RandomSet(4, 0.5, 2, rng), pattern.RandomSet(4, 0.75, 2, rng)},
		LevelNames: []string{"l6", "l3"},
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		b := sampleBundle(seed)
		data, err := b.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if len(got.Weights) != 1 || got.Weights[0].Name != "enc.0.wq.W" {
			return false
		}
		for i, v := range got.Weights[0].Data {
			if v != b.Weights[0].Data[i] {
				return false
			}
		}
		if len(got.Sets) != 2 || got.LevelNames[1] != "l3" {
			return false
		}
		for si, s := range got.Sets {
			for pi, p := range s.Patterns {
				if !p.Equal(b.Sets[si].Patterns[pi]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	b := sampleBundle(1)
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
}

func TestValidation(t *testing.T) {
	b := sampleBundle(2)
	b.LevelNames = b.LevelNames[:1]
	if err := b.Validate(); err == nil {
		t.Fatal("mismatched level names accepted")
	}
	b = sampleBundle(3)
	b.Sets = nil
	b.LevelNames = nil
	if err := b.Validate(); err == nil {
		t.Fatal("empty bundle accepted")
	}
	b = sampleBundle(4)
	b.Weights[0].Data = b.Weights[0].Data[:5]
	if err := b.Validate(); err == nil {
		t.Fatal("short weight data accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	b := sampleBundle(5)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, data...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := sampleBundle(6)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestSetBytesTiny(t *testing.T) {
	b := sampleBundle(7)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.SetBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	// the run-time switch section must be a small fraction of the bundle
	// (weights dominate) — the paper's lightweight-switch property.
	if n*4 > len(data) {
		t.Fatalf("set section %dB not small vs bundle %dB", n, len(data))
	}
	if _, err := b.SetBytes(9); err == nil {
		t.Fatal("out-of-range set accepted")
	}
}

// hugeDims is a 27-byte bundle whose one weight declares 2^20 x 2^20
// dims: each axis is within bounds, and before their product was
// bounded the decoder allocated 2^40 float64s and the process died.
func hugeDims() []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, []uint32{magic, version, 1, 0})
	binary.Write(&b, binary.LittleEndian, uint16(1))
	b.WriteString("w")
	binary.Write(&b, binary.LittleEndian, []uint32{1 << 20, 1 << 20})
	return b.Bytes()
}

func TestDecodeRejectsHugeDims(t *testing.T) {
	data := hugeDims()
	if len(data) != 27 {
		t.Fatalf("hostile bundle is %d bytes, want 27", len(data))
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("2^20 x 2^20 weight decoded without error")
	}
	// 4096 x 4096 passes the size bounds but the input holds no values;
	// a reader that cannot report its length must fail on the data, not
	// on an up-front allocation
	binary.LittleEndian.PutUint32(data[19:], 4096)
	binary.LittleEndian.PutUint32(data[23:], 4096)
	if _, err := Decode(data); err == nil {
		t.Fatal("4096 x 4096 weight with no values decoded without error")
	}
	if _, err := Read(io.MultiReader(bytes.NewReader(data))); err == nil {
		t.Fatal("4096 x 4096 weight with no values read without error")
	}
}

// FuzzDecode: arbitrary bytes decode to an error or to a bundle, never
// a panic or a runaway allocation; whatever decodes re-encodes to the
// bytes it was read from, and Encode output always decodes.
func FuzzDecode(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		data, err := sampleBundle(seed).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(hugeDims())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("decoded bundle does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatal("re-encoded bundle differs from the bytes it was decoded from")
		}
		if _, err := Decode(enc); err != nil {
			t.Fatalf("Encode output does not decode: %v", err)
		}
	})
}
