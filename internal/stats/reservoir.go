package stats

import (
	"sort"
	"sync"

	"github.com/dsms/hmts/internal/xrand"
)

// Reservoir keeps a fixed-size uniform sample of a value stream (Vitter's
// Algorithm R) so the harness can report latency quantiles without storing
// every observation.
type Reservoir struct {
	mu   sync.Mutex
	rng  *xrand.Rand
	vals []float64
	cap  int
	seen uint64
}

// NewReservoir returns a reservoir holding up to size samples, seeded
// deterministically.
func NewReservoir(size int, seed uint64) *Reservoir {
	if size <= 0 {
		panic("stats: reservoir size must be positive")
	}
	return &Reservoir{rng: xrand.New(seed), cap: size}
}

// Observe offers one value to the sample.
func (r *Reservoir) Observe(v float64) {
	r.mu.Lock()
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
	} else if j := r.rng.Int64n(int64(r.seen)); j < int64(r.cap) {
		r.vals[j] = v
	}
	r.mu.Unlock()
}

// Count returns how many values were observed since the last Reset.
func (r *Reservoir) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Quantile returns the q-quantile (q in [0,1]) of the sampled values, or 0
// if empty.
func (r *Reservoir) Quantile(q float64) float64 {
	r.mu.Lock()
	sorted := append([]float64(nil), r.vals...)
	r.mu.Unlock()
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// Reset closes the current sampling window: it returns how many values
// were observed since the last Reset and the window's sample sorted
// ascending, and empties the reservoir for the next window. The PRNG
// stream carries over, so consecutive windows draw from one seeded
// sequence.
func (r *Reservoir) Reset() (seen uint64, sorted []float64) {
	r.mu.Lock()
	seen = r.seen
	sorted = append([]float64(nil), r.vals...)
	r.vals = r.vals[:0]
	r.seen = 0
	r.mu.Unlock()
	sort.Float64s(sorted)
	return seen, sorted
}

// QuantileSorted reads the q-quantile from an ascending slice, or 0 if it
// is empty.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
