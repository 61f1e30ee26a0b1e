package workload

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/stream"
)

// capture is a minimal op.Sink recording the elements and how they were
// cut into batches.
type capture struct {
	mu     sync.Mutex
	els    []stream.Element
	bursts []int
	done   int
}

func (c *capture) ProcessBatch(_ int, es []stream.Element) {
	c.mu.Lock()
	c.els = append(c.els, es...)
	c.bursts = append(c.bursts, len(es))
	c.mu.Unlock()
}

func (c *capture) Done(int) {
	c.mu.Lock()
	c.done++
	c.mu.Unlock()
}

func TestStampedSourceSchedulesExactly(t *testing.T) {
	src := New("s", 100, SeqKeys(), FixedRate{Hz: 1000}, nil)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 100 || c.done != 1 {
		t.Fatalf("emitted %d, done %d", len(c.els), c.done)
	}
	for i, e := range c.els {
		want := int64(i+1) * 1_000_000 // 1ms gaps, first gap before element 0
		if e.TS != want {
			t.Fatalf("element %d stamped %d, want %d", i, e.TS, want)
		}
		if e.Key != int64(i) || e.Val != 1 {
			t.Fatalf("payload %v", e)
		}
	}
	if src.Emitted() != 100 {
		t.Fatalf("Emitted %d", src.Emitted())
	}
}

func TestRealTimeSourcePacing(t *testing.T) {
	clock := simtime.NewReal()
	src := New("s", 50, nil, FixedRate{Hz: 1000}, clock) // 50ms nominal
	c := &capture{}
	start := time.Now()
	src.Run(c, 0)
	elapsed := time.Since(start)
	if elapsed < 40*time.Millisecond {
		t.Fatalf("real-time source finished in %v, want >= ~50ms", elapsed)
	}
	prev := int64(-1)
	for _, e := range c.els {
		if e.TS < prev {
			t.Fatal("timestamps not monotone")
		}
		prev = e.TS
	}
}

func TestSourceStop(t *testing.T) {
	src := New("s", 1_000_000, nil, FixedRate{Hz: 1000}, simtime.NewReal())
	c := &capture{}
	go func() {
		time.Sleep(10 * time.Millisecond)
		src.Stop()
		src.Stop() // idempotent
	}()
	done := make(chan struct{})
	go func() { src.Run(c, 0); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not end the source")
	}
	if c.done != 1 {
		t.Fatal("Done not sent after Stop")
	}
	if src.Emitted() >= 1_000_000 {
		t.Fatal("source ran to completion despite Stop")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(1000, 7)
	var total int64
	const n = 100_000
	for i := 0; i < n; i++ {
		total += p.Next(i)
	}
	mean := float64(total) / n
	if math.Abs(mean-1e6) > 2e4 {
		t.Fatalf("poisson mean gap %v ns, want ~1e6", mean)
	}
}

func TestPhases(t *testing.T) {
	p := NewPhases(Phase{Count: 3, Hz: 1000}, Phase{Count: 2, Hz: 10})
	if p.Total() != 5 {
		t.Fatalf("total %d", p.Total())
	}
	gaps := []int64{p.Next(0), p.Next(2), p.Next(3), p.Next(4), p.Next(99)}
	if gaps[0] != 1_000_000 || gaps[1] != 1_000_000 {
		t.Fatalf("phase 1 gaps %v", gaps)
	}
	if gaps[2] != 100_000_000 || gaps[3] != 100_000_000 {
		t.Fatalf("phase 2 gaps %v", gaps)
	}
	if gaps[4] != 0 {
		t.Fatalf("past-the-end gap %v", gaps[4])
	}
}

func TestSliceReplaysVerbatim(t *testing.T) {
	els := []stream.Element{{TS: 5, Key: 9, Val: 2}, {TS: 7, Key: 1, Val: 3, Aux: "x"}}
	src := Slice("replay", els)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 2 {
		t.Fatalf("replayed %d", len(c.els))
	}
	for i := range els {
		if c.els[i] != els[i] {
			t.Fatalf("element %d altered: %v vs %v", i, c.els[i], els[i])
		}
	}
}

func TestUniformKeysRangeAndDeterminism(t *testing.T) {
	g1, g2 := UniformKeys(10, 20, 3), UniformKeys(10, 20, 3)
	for i := 0; i < 10_000; i++ {
		a, b := g1(i), g2(i)
		if a.Key != b.Key {
			t.Fatal("same seed diverged")
		}
		if a.Key < 10 || a.Key > 20 {
			t.Fatalf("key %d out of range", a.Key)
		}
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	g := ZipfKeys(50, 1.3, 5)
	counts := map[int64]int{}
	for i := 0; i < 50_000; i++ {
		counts[g(i).Key]++
	}
	if counts[0] <= counts[25] {
		t.Fatalf("zipf keys not skewed: %d vs %d", counts[0], counts[25])
	}
}

func TestLagReporting(t *testing.T) {
	src := New("s", 10, nil, FixedRate{Hz: 1_000_000}, nil)
	c := &capture{}
	src.Run(c, 0)
	// After a stamped run, the schedule reached 10µs; lag vs a later
	// "now" is positive, vs an earlier one zero.
	if src.LagNS(20_000) <= 0 {
		t.Fatal("expected positive lag")
	}
	if src.LagNS(0) != 0 {
		t.Fatal("lag should clamp at zero")
	}
}

func TestRampArrival(t *testing.T) {
	r := Ramp{StartHz: 100, EndHz: 1000, N: 11}
	first, last := r.Next(0), r.Next(10)
	if first != int64(1e9/100) {
		t.Fatalf("first gap %d", first)
	}
	if last != int64(1e9/1000) {
		t.Fatalf("last gap %d", last)
	}
	prev := first
	for i := 1; i <= 10; i++ {
		g := r.Next(i)
		if g > prev {
			t.Fatalf("ramp gaps must shrink: %d after %d", g, prev)
		}
		prev = g
	}
	if g := r.Next(99); g != last {
		t.Fatalf("past-the-end gap %d, want %d", g, last)
	}
	// Degenerate single-element ramp uses the end rate.
	if g := (Ramp{StartHz: 1, EndHz: 10, N: 1}).Next(0); g != int64(1e8) {
		t.Fatalf("degenerate ramp gap %d", g)
	}
}

func TestRampSourceEndToEnd(t *testing.T) {
	src := New("ramp", 1000, SeqKeys(), Ramp{StartHz: 1000, EndHz: 100_000, N: 1000}, nil)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 1000 {
		t.Fatalf("emitted %d", len(c.els))
	}
	// Gaps between stamped timestamps must shrink over the run.
	early := c.els[10].TS - c.els[9].TS
	late := c.els[999].TS - c.els[998].TS
	if late >= early {
		t.Fatalf("ramp did not accelerate: early gap %d, late gap %d", early, late)
	}
}

// TestBatchedStampedSource: with SetBatch, a stamped source delivers identical elements and timestamps in bursts.
func TestBatchedStampedSource(t *testing.T) {
	src := New("s", 100, SeqKeys(), FixedRate{Hz: 1000}, nil)
	src.SetBatch(32)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 100 || c.done != 1 {
		t.Fatalf("emitted %d, done %d", len(c.els), c.done)
	}
	if len(c.bursts) != 4 { // 32+32+32+4
		t.Fatalf("bursts %v, want 4 of them", c.bursts)
	}
	for i, e := range c.els {
		want := int64(i+1) * 1_000_000
		if e.TS != want || e.Key != int64(i) {
			t.Fatalf("element %d = %+v, want ts %d key %d", i, e, want, i)
		}
	}
	if src.Emitted() != 100 {
		t.Fatalf("Emitted %d", src.Emitted())
	}
}

// TestUnbatchedSourceDeliversSingletons: without SetBatch the batch size is
// 1, so every element is handed over as its own one-element batch, in order.
func TestUnbatchedSourceDeliversSingletons(t *testing.T) {
	src := New("s", 50, SeqKeys(), FixedRate{Hz: 1000}, nil)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 50 || c.done != 1 {
		t.Fatalf("emitted %d, done %d", len(c.els), c.done)
	}
	for i, e := range c.els {
		if e.Key != int64(i) || c.bursts[i] != 1 {
			t.Fatalf("element %d: key %d in a batch of %d, want key %d alone", i, e.Key, c.bursts[i], i)
		}
	}
}

// TestBatchedRealTimeSourceFlushesBeforeSleep: a paced batched source
// must not delay due elements behind a pacing sleep — every element still
// arrives no earlier than its schedule, and all arrive.
func TestBatchedRealTimeSourceFlushesBeforeSleep(t *testing.T) {
	clock := simtime.NewReal()
	src := New("s", 20, SeqKeys(), FixedRate{Hz: 1000}, clock)
	src.SetBatch(8)
	c := &capture{}
	src.Run(c, 0)
	if len(c.els) != 20 || c.done != 1 {
		t.Fatalf("emitted %d, done %d", len(c.els), c.done)
	}
	// Pacing forces a flush before each sleep, so bursts stay size 1 when
	// the source is keeping schedule.
	for _, b := range c.bursts {
		if b > 8 {
			t.Fatalf("burst of %d exceeds the configured batch", b)
		}
	}
	for i := 1; i < len(c.els); i++ {
		if c.els[i].TS < c.els[i-1].TS {
			t.Fatalf("timestamps regressed at %d", i)
		}
	}
}

// TestBatchedSourceStopFlushes: stopping a batched source delivers the
// partial burst it had accumulated.
func TestBatchedSourceStopFlushes(t *testing.T) {
	src := New("s", 1_000_000, SeqKeys(), FixedRate{}, nil)
	src.SetBatch(64)
	c := &capture{}
	go func() {
		// Run flat out; stop as soon as something was emitted.
		for src.Emitted() == 0 {
		}
		src.Stop()
	}()
	src.Run(c, 0)
	if c.done != 1 {
		t.Fatal("no Done after stop")
	}
	if got := int(src.Emitted()); got != len(c.els) {
		t.Fatalf("Emitted %d but delivered %d", got, len(c.els))
	}
	for i, e := range c.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
}
