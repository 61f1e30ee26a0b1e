package main

import (
	"encoding/binary"
	"math"
	"strconv"
)

// numKeys is the size of the key domain. Every workload's WHERE clause
// keeps key < numKeys/2.
const numKeys = 1000

// tsBase offsets every element timestamp: hmtsd stamps a zero TS with its
// arrival time, so the generator never sends one.
const tsBase = int64(1e9)

// recordSize is one PUSHB record: ts int64, key int64, val float64, all
// little-endian (the framing cmd/hmtsd documents).
const recordSize = 24

// splitmix64 is the generator's PRNG: tiny, seedable and stable across Go
// releases, so a seed names the same input stream everywhere.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipfAlias samples zipf ranks (p(r) ∝ 1/(r+1)) in O(1) with Vose's alias
// method, so key generation stays far below the daemon's per-element cost.
type zipfAlias struct {
	prob  [numKeys]float64
	alias [numKeys]int32
}

// zipf is read-only after init and shared by every generator.
var zipf = newZipfAlias()

func newZipfAlias() *zipfAlias {
	var w [numKeys]float64
	sum := 0.0
	for r := range w {
		w[r] = 1 / float64(r+1)
		sum += w[r]
	}
	z := &zipfAlias{}
	var small, large []int32
	var scaled [numKeys]float64
	for r := range w {
		scaled[r] = w[r] / sum * numKeys
		if scaled[r] < 1 {
			small = append(small, int32(r))
		} else {
			large = append(large, int32(r))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		z.prob[s], z.alias[s] = scaled[s], l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, r := range append(small, large...) {
		z.prob[r], z.alias[r] = 1, r
	}
	return z
}

// keyOfRank interleaves zipf ranks over the key domain: even ranks map to
// the lower half, odd ranks to the upper half. WHERE key < numKeys/2 then
// keeps the same ~55% of the input on every seed, while hot keys stay on
// both sides of the predicate.
func keyOfRank(r int64) int64 {
	if r%2 == 0 {
		return r / 2
	}
	return numKeys/2 + r/2
}

// input is one workload's deterministic element stream: element i has
// TS = tsBase + i*spacing, a zipf key and a value that is a multiple of
// 1/4, so window sums are exact in float64 and the reference checker
// reproduces the engine's averages bit for bit.
type input struct {
	rng     splitmix64
	spacing int64
	i       int64
}

func newInput(seed uint64, spacing int64) *input {
	return &input{rng: splitmix64{s: seed}, spacing: spacing}
}

func (in *input) next() (ts, key int64, val float64) {
	x := in.rng.next()
	j := (x >> 32) % numKeys
	r := int64(j)
	if float64(uint32(x))/(1<<32) >= zipf.prob[j] {
		r = int64(zipf.alias[j])
	}
	y := in.rng.next()
	ts = tsBase + in.i*in.spacing
	in.i++
	return ts, keyOfRank(r), float64(y%1024) / 4
}

// frameEncoder builds PUSHB frames in one reused buffer.
type frameEncoder struct {
	source string
	buf    []byte
}

// encode appends n elements drawn from in as one PUSHB frame and returns
// the frame bytes, valid until the next call.
func (f *frameEncoder) encode(in *input, n int) []byte {
	b := f.buf[:0]
	b = append(b, "PUSHB "...)
	b = append(b, f.source...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '\n')
	for k := 0; k < n; k++ {
		ts, key, val := in.next()
		b = binary.LittleEndian.AppendUint64(b, uint64(ts))
		b = binary.LittleEndian.AppendUint64(b, uint64(key))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val))
	}
	f.buf = b
	return b
}
