package slo

import (
	"sort"
	"testing"

	"github.com/dsms/hmts/internal/xrand"
)

// refSampler is the monitor's former inline per-second sampler, kept as the
// reference model: Algorithm R over one PRNG stream that runs on across
// seconds, the sample and count cleared at every roll.
type refSampler struct {
	rng    *xrand.Rand
	sample []float64
	cap    int
	seen   uint64
}

func (r *refSampler) observe(v float64) {
	r.seen++
	if len(r.sample) < r.cap {
		r.sample = append(r.sample, v)
	} else if j := r.rng.Int64n(int64(r.seen)); j < int64(r.cap) {
		r.sample[j] = v
	}
}

func (r *refSampler) roll() Second {
	s := Second{Count: r.seen, Sampled: len(r.sample)}
	if len(r.sample) > 0 {
		sort.Float64s(r.sample)
		q := func(p float64) float64 { return r.sample[int(p*float64(len(r.sample)-1))] }
		s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	}
	r.sample = r.sample[:0]
	r.seen = 0
	return s
}

// TestMonitorMatchesInlineSampler pins the move of the monitor's sampling
// onto stats.Reservoir: for the same seed and inputs, every second's
// Count, Sampled and P50/P90/P99 equal those of the former inline sampler —
// across seconds that stay under the reservoir size, overflow it, and are
// empty.
func TestMonitorMatchesInlineSampler(t *testing.T) {
	const size = 64
	for seed := uint64(1); seed <= 4; seed++ {
		m := NewMonitor(size, seed)
		ref := &refSampler{rng: xrand.New(seed), cap: size}
		vals := xrand.New(seed + 50)
		for sec, n := range []int{10, 500, 0, size, 3000, 1, 777} {
			for i := 0; i < n; i++ {
				v := float64(vals.Int64n(1_000_000))
				m.Observe(v)
				ref.observe(v)
			}
			got, want := m.Roll(Gauges{}), ref.roll()
			if got.Count != want.Count || got.Sampled != want.Sampled ||
				got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 {
				t.Fatalf("seed %d second %d: got n=%d sampled=%d p50=%v p90=%v p99=%v, want n=%d sampled=%d p50=%v p90=%v p99=%v",
					seed, sec, got.Count, got.Sampled, got.P50, got.P90, got.P99,
					want.Count, want.Sampled, want.P50, want.P90, want.P99)
			}
		}
	}
}
