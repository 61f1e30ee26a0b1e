package main

import "math/bits"

// subBits sets the histogram resolution: 2^subBits buckets per power of
// two, so a reported percentile is within 1/128 (0.8%) of the sample.
const subBits = 7

// hist is a fixed-bucket log-linear histogram of non-negative int64
// samples (nanoseconds here). Recording is a few instructions and never
// allocates.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := bits.Len64(uint64(v))
	top := uint64(v) >> (l - subBits - 1)
	return (l-subBits)<<subBits + int(top) - 1<<subBits
}

// bucketMid is the value a bucket reports: its midpoint.
func bucketMid(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	l := i>>subBits + subBits
	top := int64(i&(1<<subBits-1) + 1<<subBits)
	shift := l - subBits - 1
	return top<<shift + (int64(1)<<shift)/2
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for an
// empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if v := bucketMid(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}
