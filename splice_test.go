package hmts_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
)

// countSink counts a query's results and its end-of-stream signals.
type countSink struct {
	n    atomic.Int64
	done atomic.Int64
}

func (c *countSink) Process(int, hmts.Element) { c.n.Add(1) }
func (c *countSink) Done(int)                  { c.done.Add(1) }

// parkedSourceRun drives the splice-under-a-parked-source scenario: four
// shared-prefix standing queries in HMTS mode behind 1024-element bounded
// queues, fed by a Block-policy external source in batches of 256, while
// mutate runs against the engine every period. Sources spend much of the
// run parked on full queues inside an operator's fan-out loop, which is
// exactly where a splice used to rewrite the operator's subscriptions
// under it. It returns the per-query sinks and the number of
// elements the ingress admitted.
func parkedSourceRun(t *testing.T, period time.Duration, mutate func(eng *hmts.Engine, src *hmts.Stream, round int) error) ([]*countSink, int) {
	t.Helper()
	total := 3_000_000
	if raceEnabled {
		total = 300_000
	}
	eng := hmts.New()
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 4096})
	src := eng.Source("ext", ext.Spec())
	sinks := make([]*countSink, 4)
	for i := range sinks {
		sinks[i] = &countSink{}
		err := eng.AddQuery(fmt.Sprintf("q%d", i), sinks[i], func() (*hmts.Stream, error) {
			shared := src.Where("shared", func(e hmts.Element) bool { return e.Key >= 0 })
			return shared.Map(fmt.Sprintf("private%d", i), func(e hmts.Element) hmts.Element { e.Val++; return e }), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 1024})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if err := mutate(eng, src, round); err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
		}
	}()

	batch := make([]hmts.Element, 256)
	admitted := 0
	for admitted < total {
		for i := range batch {
			seq := admitted + i
			batch[i] = hmts.Element{TS: hmts.Time(seq+1) * 1000, Key: int64(seq % 64), Val: float64(seq)}
		}
		got := ext.PushBatch(batch)
		admitted += got
		if got != len(batch) {
			t.Errorf("PushBatch admitted %d of %d after %d elements (engine err: %v)", got, len(batch), admitted, eng.Err())
			break
		}
	}
	close(stop)
	wg.Wait()
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
	return sinks, admitted
}

// TestParkedSourceRebalance is the regression test for a splice running
// while a source is parked on a full queue: the source used to yield the
// world lock from inside an operator's fan-out loop, Rebalance then
// unsubscribed one of that operator's edges (shifting its edge list in
// place), and the resumed loop delivered a batch twice to one query and
// skipped another's.
func TestParkedSourceRebalance(t *testing.T) {
	sinks, admitted := parkedSourceRun(t, time.Millisecond, func(eng *hmts.Engine, _ *hmts.Stream, _ int) error {
		return eng.Rebalance()
	})
	for i, s := range sinks {
		if got := s.n.Load(); got != int64(admitted) || s.done.Load() != 1 {
			t.Errorf("query %d saw %d of %d elements, %d Done", i, got, admitted, s.done.Load())
		}
	}
}

// TestParkedSourceQueryChurn is the same scenario with a live query added
// and dropped every period. Before the fix a drop could shrink the fan-out
// loop's edge list under the parked source, which then panicked (index
// out of range) and fail-stopped the engine.
func TestParkedSourceQueryChurn(t *testing.T) {
	sinks, admitted := parkedSourceRun(t, 2*time.Millisecond, func(eng *hmts.Engine, src *hmts.Stream, round int) error {
		name := fmt.Sprintf("churn%d", round)
		err := eng.AddQuery(name, &countSink{}, func() (*hmts.Stream, error) {
			shared := src.Where("shared", func(e hmts.Element) bool { return e.Key >= 0 })
			return shared.Map(name, func(e hmts.Element) hmts.Element { return e }), nil
		})
		if err != nil {
			return err
		}
		return eng.DropQuery(name)
	})
	for i, s := range sinks {
		if got := s.n.Load(); got != int64(admitted) || s.done.Load() != 1 {
			t.Errorf("query %d saw %d of %d elements, %d Done", i, got, admitted, s.done.Load())
		}
	}
}

// TestActuatorsConcurrentWithMetrics hammers every live actuator —
// SwitchMode, Rebalance, Reshard, AddQuery/DropQuery and Shed — from its
// own goroutine, concurrently with Metrics and Queries readers, while a
// producer pushes through bounded queues. Run under -race it proves the
// engine's one actuator lock; without -race it still checks that no
// admitted element is lost or duplicated across the mutations.
func TestActuatorsConcurrentWithMetrics(t *testing.T) {
	total := 200_000
	if raceEnabled {
		total = 40_000
	}
	eng := hmts.New()
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 512})
	src := eng.Source("ext", ext.Spec())
	standing := &countSink{}
	if err := eng.AddQuery("standing", standing, func() (*hmts.Stream, error) {
		return src.Where("all", func(e hmts.Element) bool { return e.Key >= 0 }), nil
	}); err != nil {
		t.Fatal(err)
	}
	sharded := &countSink{}
	src.Aggregate("agg", hmts.Sum, time.Hour, groupKey).Shard(2).Into("agg-out", sharded)
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 64})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	actuate := func(name string, f func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				if err := f(round); err != nil {
					t.Errorf("%s round %d: %v", name, round, err)
					return
				}
			}
		}()
	}
	modes := []hmts.Mode{hmts.ModeGTS, hmts.ModeOTS, hmts.ModeHMTS, hmts.ModeDI}
	actuate("SwitchMode", func(r int) error { return eng.SwitchMode(modes[r%len(modes)], "") })
	actuate("Rebalance", func(int) error { return eng.Rebalance() })
	actuate("Reshard", func(r int) error { return eng.Reshard("agg", 1+r%3) })
	actuate("AddDropQuery", func(r int) error {
		name := fmt.Sprintf("churn%d", r)
		if err := eng.AddQuery(name, &countSink{}, func() (*hmts.Stream, error) {
			return src.Where("all", func(e hmts.Element) bool { return e.Key >= 0 }).
				Map(name, func(e hmts.Element) hmts.Element { return e }), nil
		}); err != nil {
			return err
		}
		return eng.DropQuery(name)
	})
	actuate("Shed", func(r int) error { eng.Shed(r%2 == 0); return nil })
	actuate("Metrics", func(int) error {
		m := eng.Metrics()
		if len(m.Queries) == 0 || len(eng.Queries()) == 0 {
			return fmt.Errorf("standing query missing from a snapshot")
		}
		return nil
	})

	batch := make([]hmts.Element, 64)
	for pushed := 0; pushed < total; pushed += len(batch) {
		for i := range batch {
			seq := pushed + i
			batch[i] = hmts.Element{TS: hmts.Time(seq+1) * 1000, Key: int64(seq % 32), Val: 1}
		}
		ext.PushBatch(batch)
	}
	close(stop)
	wg.Wait()
	eng.Shed(false)
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
	accepted := int64(ext.Stats().Accepted)
	if got := standing.n.Load(); got != accepted || standing.done.Load() != 1 {
		t.Errorf("standing query saw %d of %d admitted elements, %d Done", got, accepted, standing.done.Load())
	}
	if got := sharded.n.Load(); got != accepted || sharded.done.Load() != 1 {
		t.Errorf("sharded aggregate emitted %d for %d admitted elements, %d Done", got, accepted, sharded.done.Load())
	}
}

// TestPanickingLiveBuildFailStops: a build closure that panics inside a
// live AddQuery splice propagates its panic to the caller and fail-stops
// the engine. It used to restart the executors the splice had halted,
// whose second exit then crashed the process.
func TestPanickingLiveBuildFailStops(t *testing.T) {
	eng := hmts.New()
	ext := hmts.External("ext", hmts.ExternalConfig{})
	src := eng.Source("ext", ext.Spec())
	src.Where("all", func(hmts.Element) bool { return true }).Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})
	ext.Push(hmts.Element{TS: 1})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("AddQuery recovered %v, want the build's panic", r)
			}
		}()
		_ = eng.AddQuery("bad", &countSink{}, func() (*hmts.Stream, error) { panic("boom") })
	}()
	ext.Close()
	eng.Wait()
	time.Sleep(20 * time.Millisecond) // let any wrongly restarted executor exit
	if err := eng.Err(); err == nil || !strings.Contains(err.Error(), "panic in splice") {
		t.Fatalf("Err() = %v, want the splice panic", err)
	}
}
