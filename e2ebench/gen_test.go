package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func frames(seed uint64, n int) []byte {
	in := newInput(seed, 5000)
	enc := &frameEncoder{source: "ext"}
	var all []byte
	for i := 0; i < n; i++ {
		all = append(all, enc.encode(in, 100+i)...)
	}
	return all
}

func TestSeededFramesRepeat(t *testing.T) {
	a, b := frames(7, 20), frames(7, 20)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different frame bytes")
	}
	if bytes.Equal(a, frames(8, 20)) {
		t.Fatal("different seeds produced identical frame bytes")
	}
}

// TestFrameEncoding checks PUSHB framing against cmd/hmtsd's spec: a
// "PUSHB <source> <count>" line followed by count 24-byte records of
// little-endian ts int64, key int64, val float64.
func TestFrameEncoding(t *testing.T) {
	const n = 3
	enc := &frameEncoder{source: "ext"}
	b := enc.encode(newInput(42, 1000), n)
	header := "PUSHB ext 3\n"
	if string(b[:len(header)]) != header {
		t.Fatalf("header %q, want %q", b[:len(header)], header)
	}
	body := b[len(header):]
	if len(body) != n*24 {
		t.Fatalf("body is %d bytes, want %d", len(body), n*24)
	}
	ref := newInput(42, 1000)
	for i := 0; i < n; i++ {
		rec := body[i*24:]
		ts := int64(binary.LittleEndian.Uint64(rec))
		key := int64(binary.LittleEndian.Uint64(rec[8:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
		wts, wkey, wval := ref.next()
		if ts != wts || key != wkey || val != wval {
			t.Fatalf("record %d = (%d, %d, %v), want (%d, %d, %v)", i, ts, key, val, wts, wkey, wval)
		}
		if ts != tsBase+int64(i)*1000 {
			t.Fatalf("record %d ts %d, want %d", i, ts, tsBase+int64(i)*1000)
		}
	}
}

// TestKeyShares pins the selectivities the workloads are built around:
// about half the input passes WHERE key < 500, and HAVING key >= 460 keeps
// about 1% of the aggregate's output.
func TestKeyShares(t *testing.T) {
	in := newInput(1, 1)
	const n = 1_000_000
	pass, tail := 0, 0
	for i := 0; i < n; i++ {
		_, key, val := in.next()
		if key < 0 || key >= numKeys || val < 0 || val >= 256 || val*4 != math.Trunc(val*4) {
			t.Fatalf("element %d out of domain: key %d val %v", i, key, val)
		}
		if key < numKeys/2 {
			pass++
			if key >= shardedHavingKey {
				tail++
			}
		}
	}
	if f := float64(pass) / n; f < 0.50 || f > 0.60 {
		t.Errorf("WHERE keeps %.3f of the input, want about 0.55", f)
	}
	if f := float64(tail) / float64(pass); f < 0.007 || f > 0.013 {
		t.Errorf("HAVING key >= %d keeps %.4f of aggregate outputs, want about 0.01", shardedHavingKey, f)
	}
}
