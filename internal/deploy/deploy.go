// Package deploy serializes an RT3 deployment bundle — the shared
// backbone weights plus one pattern set per V/F level — into a compact
// binary artifact, the object a mobile runtime would flash once and then
// reconfigure in place. The format keeps pattern sets as separate,
// individually-loadable sections, mirroring the run-time property the
// paper measures: a level switch touches only its (tiny) section.
package deploy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rt3/internal/pattern"
)

// magic and version identify the bundle format.
const (
	magic   = 0x52543342 // "RT3B"
	version = 1
)

// Decoder bounds: counts and dimensions above maxCount, and matrices
// above maxElems values (512 MiB of float64), are rejected as
// implausible before anything is allocated for them.
const (
	maxCount = 1 << 20
	maxElems = 1 << 26
)

// Bundle is an RT3 deployment artifact.
type Bundle struct {
	// Weights holds each prunable matrix's dense backbone values
	// (masked positions are zero), row-major with explicit dims.
	Weights []WeightMatrix
	// Sets holds one pattern set per V/F level, fastest level first.
	Sets []*pattern.Set
	// LevelNames names the V/F level of each set ("l6", ...).
	LevelNames []string
}

// WeightMatrix is one serialized backbone matrix.
type WeightMatrix struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Validate reports structural errors.
func (b *Bundle) Validate() error {
	if len(b.Sets) != len(b.LevelNames) {
		return fmt.Errorf("deploy: %d sets vs %d level names", len(b.Sets), len(b.LevelNames))
	}
	if len(b.Sets) == 0 {
		return fmt.Errorf("deploy: bundle has no pattern sets")
	}
	for i, w := range b.Weights {
		if len(w.Data) != w.Rows*w.Cols {
			return fmt.Errorf("deploy: weight %d data len %d != %dx%d", i, len(w.Data), w.Rows, w.Cols)
		}
	}
	for i, s := range b.Sets {
		if len(s.Patterns) == 0 {
			return fmt.Errorf("deploy: set %d empty", i)
		}
	}
	return nil
}

// WriteTo serializes the bundle. The layout is:
//
//	header: magic u32 | version u32 | nWeights u32 | nSets u32
//	weights: per matrix, name | rows u32 | cols u32 | float64 values
//	sets: per set, level name | sparsity f64 | nPatterns u32 |
//	      per pattern: psize u32 | psize^2 bytes
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	for _, v := range []uint32{magic, version, uint32(len(b.Weights)), uint32(len(b.Sets))} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	for _, m := range b.Weights {
		if err := writeString(cw, m.Name); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, []uint32{uint32(m.Rows), uint32(m.Cols)}); err != nil {
			return cw.n, err
		}
		for _, v := range m.Data {
			if err := binary.Write(cw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return cw.n, err
			}
		}
	}
	for i, s := range b.Sets {
		if err := writeString(cw, b.LevelNames[i]); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, math.Float64bits(s.Sparsity)); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(s.Patterns))); err != nil {
			return cw.n, err
		}
		for _, p := range s.Patterns {
			if err := binary.Write(cw, binary.LittleEndian, uint32(p.Size)); err != nil {
				return cw.n, err
			}
			if _, err := cw.Write(p.Bits); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// Read deserializes a bundle written by WriteTo.
func Read(r io.Reader) (*Bundle, error) {
	var hdr [4]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("deploy: header: %w", err)
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("deploy: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("deploy: unsupported version %d", hdr[1])
	}
	if hdr[2] > maxCount || hdr[3] > maxCount {
		return nil, fmt.Errorf("deploy: implausible counts %d/%d", hdr[2], hdr[3])
	}
	b := &Bundle{}
	for i := uint32(0); i < hdr[2]; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var dims [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
			return nil, err
		}
		if dims[0] > maxCount || dims[1] > maxCount || uint64(dims[0])*uint64(dims[1]) > maxElems {
			return nil, fmt.Errorf("deploy: implausible dims %dx%d", dims[0], dims[1])
		}
		data, err := readFloats(r, int(dims[0])*int(dims[1]))
		if err != nil {
			return nil, fmt.Errorf("deploy: weight %q: %w", name, err)
		}
		b.Weights = append(b.Weights, WeightMatrix{Name: name, Rows: int(dims[0]), Cols: int(dims[1]), Data: data})
	}
	for i := uint32(0); i < hdr[3]; i++ {
		level, err := readString(r)
		if err != nil {
			return nil, err
		}
		var spBits uint64
		if err := binary.Read(r, binary.LittleEndian, &spBits); err != nil {
			return nil, err
		}
		var nPat uint32
		if err := binary.Read(r, binary.LittleEndian, &nPat); err != nil {
			return nil, err
		}
		if nPat > maxCount {
			return nil, fmt.Errorf("deploy: implausible pattern count %d", nPat)
		}
		set := &pattern.Set{Sparsity: math.Float64frombits(spBits)}
		for k := uint32(0); k < nPat; k++ {
			var psize uint32
			if err := binary.Read(r, binary.LittleEndian, &psize); err != nil {
				return nil, err
			}
			if psize == 0 || psize > 4096 {
				return nil, fmt.Errorf("deploy: implausible psize %d", psize)
			}
			if err := need(r, int(psize)*int(psize)); err != nil {
				return nil, err
			}
			p := pattern.NewPattern(int(psize))
			if _, err := io.ReadFull(r, p.Bits); err != nil {
				return nil, err
			}
			set.Patterns = append(set.Patterns, p)
		}
		b.Sets = append(b.Sets, set)
		b.LevelNames = append(b.LevelNames, level)
	}
	return b, b.Validate()
}

// need fails fast when r can report its remaining length (a
// bytes.Reader, as Decode uses) and it holds fewer than n bytes, so a
// declared size is checked against the input before it is allocated.
func need(r io.Reader, n int) error {
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < n {
		return fmt.Errorf("deploy: %d bytes declared, %d left: %w", n, l.Len(), io.ErrUnexpectedEOF)
	}
	return nil
}

// readFloats reads n little-endian float64 values. It reads in bounded
// chunks and grows the result only as values arrive, so a reader that
// cannot report its length still never costs more memory than the
// input actually supplies.
func readFloats(r io.Reader, n int) ([]float64, error) {
	if err := need(r, 8*n); err != nil {
		return nil, err
	}
	const chunk = 4096
	data := make([]float64, 0, n)
	if _, ok := r.(interface{ Len() int }); !ok {
		data = make([]float64, 0, min(n, chunk))
	}
	var buf [8 * chunk]byte
	for len(data) < n {
		b := buf[:8*min(n-len(data), chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[8:] {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	}
	return data, nil
}

// Encode is a convenience wrapper returning the bundle bytes.
func (b *Bundle) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses bundle bytes.
func Decode(data []byte) (*Bundle, error) {
	return Read(bytes.NewReader(data))
}

// WeightByName returns the backbone matrix with the given parameter name.
func (b *Bundle) WeightByName(name string) (*WeightMatrix, error) {
	for i := range b.Weights {
		if b.Weights[i].Name == name {
			return &b.Weights[i], nil
		}
	}
	return nil, fmt.Errorf("deploy: no weight named %q", name)
}

// SetBytes returns the serialized size of the i-th pattern-set section —
// the bytes a run-time level switch must move.
func (b *Bundle) SetBytes(i int) (int, error) {
	if i < 0 || i >= len(b.Sets) {
		return 0, fmt.Errorf("deploy: set %d out of range %d", i, len(b.Sets))
	}
	n := 2 + len(b.LevelNames[i]) + 8 + 4 // name + sparsity + count
	for _, p := range b.Sets[i].Patterns {
		n += 4 + len(p.Bits)
	}
	return n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("deploy: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
