package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEWMAFirstObservationExact(t *testing.T) {
	e := NewEWMA(0.1)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(42)
	if e.Value() != 42 {
		t.Fatalf("first observation: %v", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 100; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant = %v", e.Value())
	}
}

func TestEWMATracksShift(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 50; i++ {
		e.Observe(10)
	}
	for i := 0; i < 200; i++ {
		e.Observe(100)
	}
	if math.Abs(e.Value()-100) > 1 {
		t.Fatalf("EWMA failed to track level shift: %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v should panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestEWMABoundedByExtremes(t *testing.T) {
	// Restricted to the estimator's real domain (nanosecond-scale
	// measurements); at ±1e308 the intermediate v-value overflows.
	if err := quick.Check(func(vals []float64) bool {
		e := NewEWMA(0.3)
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e12)
			ok = true
			e.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if !ok {
			return true
		}
		got := e.Value()
		return got >= lo-1e-9 && got <= hi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(v)
	}
	if w.Count() != 8 {
		t.Fatalf("count %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-9 {
		t.Fatalf("mean %v, want 5", w.Mean())
	}
	if sd := w.Stddev(); math.Abs(sd-2.138089935) > 1e-6 {
		t.Fatalf("stddev %v", sd)
	}
	var empty Welford
	if empty.Stddev() != 0 || empty.Mean() != 0 {
		t.Fatal("empty Welford should be zero")
	}
}

func TestOpStatsCountsAndSelectivity(t *testing.T) {
	s := NewOpStats()
	if s.Selectivity() != 1 {
		t.Fatalf("fresh selectivity %v, want neutral 1", s.Selectivity())
	}
	for i := 0; i < 10; i++ {
		s.RecordInBatch(int64(i)*100, int64(i)*100, 1)
	}
	s.RecordOut(4)
	if s.In() != 10 || s.Out() != 4 {
		t.Fatalf("in=%d out=%d", s.In(), s.Out())
	}
	if math.Abs(s.Selectivity()-0.4) > 1e-9 {
		t.Fatalf("selectivity %v", s.Selectivity())
	}
	if d := s.InterarrivalNS(); math.Abs(d-100) > 1e-9 {
		t.Fatalf("interarrival %v, want 100", d)
	}
}

func TestOpStatsBusy(t *testing.T) {
	s := NewOpStats()
	s.RecordBusyBatch(100, 1)
	s.RecordBusyBatch(200, 1)
	if s.BusyNS() != 300 {
		t.Fatalf("busy %d", s.BusyNS())
	}
	if c := s.CostNS(); c < 100 || c > 200 {
		t.Fatalf("cost estimate %v out of sample range", c)
	}
}

// TestOpStatsConcurrentProducers hammers RecordInBatch from several
// goroutines. With the old haveIn/lastIn pair, interleaved first
// arrivals double-counted and torn load/store pairs could observe gaps far
// larger than any real spacing; the Swap-based update must keep every
// observed gap within the producers' timestamp span and never lose an
// element count. Run with -race.
func TestOpStatsConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 5_000
		span      = int64(producers * perProd) // max legal gap in event time
	)
	s := NewOpStats()
	base := int64(1e9)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				ts := base + int64(w*perProd+i)
				s.RecordInBatch(ts, ts, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := s.In(); got != producers*perProd {
		t.Fatalf("in = %d, want %d", got, producers*perProd)
	}
	// Every Swap consumes exactly one predecessor: at most total-1 gaps,
	// each bounded by the overall timestamp span. A double-counted first
	// arrival would have produced a gap near base (~1e9).
	if c := s.interNS.Count(); c > producers*perProd-1 {
		t.Fatalf("interarrival observations %d exceed arrivals-1", c)
	}
	if v := s.InterarrivalNS(); v < 0 || v > float64(span) {
		t.Fatalf("interarrival estimate %v outside [0, %d]", v, span)
	}
}

func TestOpStatsBatchFirstArrivalIntraBatchGap(t *testing.T) {
	s := NewOpStats()
	// First ever arrival is a batch: d(v) seeds from the intra-batch mean.
	s.RecordInBatch(100, 400, 4)
	if v := s.InterarrivalNS(); math.Abs(v-100) > 1e-9 {
		t.Fatalf("intra-batch seed %v, want 100", v)
	}
	// Next batch measures against the previous batch's last element.
	s.RecordInBatch(500, 600, 2)
	if c := s.interNS.Count(); c != 2 {
		t.Fatalf("observations %d, want 2", c)
	}
	if s.In() != 6 {
		t.Fatalf("in %d, want 6", s.In())
	}
}

func TestOpStatsConcurrentReaders(t *testing.T) {
	s := NewOpStats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			s.RecordInBatch(int64(i), int64(i), 1)
			s.RecordOut(1)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = s.Selectivity()
		_ = s.InterarrivalNS()
	}
	<-done
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a last point")
	}
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series aggregates should be 0")
	}
	s.Add(10, 1)
	s.Add(20, 5)
	s.Add(30, 3)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if s.Max() != 5 {
		t.Fatalf("max %v", s.Max())
	}
	if math.Abs(s.Mean()-3) > 1e-9 {
		t.Fatalf("mean %v", s.Mean())
	}
	if last, _ := s.Last(); last.V != 3 || last.T != 30 {
		t.Fatalf("last %v", last)
	}
	if got := s.At(25); got != 5 {
		t.Fatalf("At(25) = %v, want 5", got)
	}
	if got := s.At(5); got != 0 {
		t.Fatalf("At(5) = %v, want 0", got)
	}
	csv := s.CSV()
	if csv == "" || csv[:4] != "t_s," {
		t.Fatalf("csv header: %q", csv)
	}
}

func TestSamplerSumsGauges(t *testing.T) {
	now := int64(0)
	s := NewSampler("mem", time.Hour, func() int64 { return now })
	g1, g2 := &fakeGauge{5}, &fakeGauge{7}
	s.Track(g1)
	s.Track(g2)
	s.Sample()
	now = 10
	g1.n = 1
	s.Sample()
	pts := s.Series().Points()
	if len(pts) != 2 || pts[0].V != 12 || pts[1].V != 8 {
		t.Fatalf("points %v", pts)
	}
}

type fakeGauge struct{ n int }

func (f *fakeGauge) Len() int { return f.n }

func TestSamplerStartStop(t *testing.T) {
	s := NewSampler("mem", time.Millisecond, func() int64 { return 0 })
	s.Track(&fakeGauge{1})
	s.Stop() // stop before start is a no-op
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	if s.Series().Len() == 0 {
		t.Fatal("sampler recorded nothing")
	}
	func() {
		defer func() { recover() }()
		s.Start()
		s.Start() // second start must panic
		t.Fatal("double Start did not panic")
	}()
	s.Stop()
}

func TestReservoirSmallStreamKeepsAll(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 0; i < 50; i++ {
		r.Observe(float64(i))
	}
	if r.Count() != 50 {
		t.Fatalf("count %d", r.Count())
	}
	if q := r.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := r.Quantile(1); q != 49 {
		t.Fatalf("q1 = %v", q)
	}
	if q := r.Quantile(0.5); math.Abs(q-24) > 1.5 {
		t.Fatalf("median %v", q)
	}
}

func TestReservoirLargeStreamQuantiles(t *testing.T) {
	r := NewReservoir(1000, 2)
	const n = 100_000
	for i := 0; i < n; i++ {
		r.Observe(float64(i))
	}
	if r.Count() != n {
		t.Fatalf("count %d", r.Count())
	}
	med := r.Quantile(0.5)
	if med < n*0.42 || med > n*0.58 {
		t.Fatalf("sampled median %v far from %v", med, n/2)
	}
}

func TestReservoirConcurrent(t *testing.T) {
	r := NewReservoir(64, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				r.Observe(float64(w*10_000 + i))
			}
		}(w)
	}
	wg.Wait()
	if r.Count() != 40_000 {
		t.Fatalf("count %d", r.Count())
	}
}
