package sched

import (
	"testing"
	"time"

	"github.com/dsms/hmts/internal/testutil"
)

// stopWithin runs d.Stop and fails the test if it does not return in time.
func stopWithin(t *testing.T, d *Deployment, timeout time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { d.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("Stop deadlocked " + what)
	}
}

// TestStopWithBlockedProducer: Stop must never deadlock behind a producer
// parked on a full bounded queue whose executor has already halted. Run a
// few rounds with one-element and 8-element drains to cover the timing
// window.
func TestStopWithBlockedProducer(t *testing.T) {
	for _, batch := range []int{1, 8} {
		for round := 0; round < 5; round++ {
			g, _ := chainGraph(10_000_000)
			d, err := Build(g, GTS(g), Options{QueueBound: 16, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			time.Sleep(time.Duration(round) * 3 * time.Millisecond)
			stopWithin(t, d, 10*time.Second,
				"with a producer blocked on a full bounded queue")
		}
	}
}

// TestStopWithPermitHoldingProducer is the exact shape the cooperative
// hook fixes: an OTS deployment where the producer partition's executor
// parks pushing into the consumer's full queue while holding the only TS
// run permit. The park must yield the permit (so the consumer can run at
// all) and Stop must abort the park via the executor's stop channel.
func TestStopWithPermitHoldingProducer(t *testing.T) {
	for _, batch := range []int{1, 8} {
		for round := 0; round < 5; round++ {
			g, _ := chainGraph(10_000_000)
			d, err := Build(g, OTS(g), Options{
				QueueBound: 4,
				Batch:      batch,
				TS:         &TSConfig{MaxConcurrent: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			time.Sleep(time.Duration(round) * 3 * time.Millisecond)
			stopWithin(t, d, 10*time.Second,
				"with a permit-holding producer parked on a full queue")
		}
	}
}

// TestStopLeaksNoGoroutines: after Stop returns, every source thread and
// executor goroutine must have exited — including ones that were parked on
// backpressure or waiting in TS.Acquire when Stop fired.
func TestStopLeaksNoGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for round := 0; round < 3; round++ {
		g, _ := chainGraph(10_000_000)
		d, err := Build(g, OTS(g), Options{
			QueueBound: 4,
			Batch:      8,
			TS:         &TSConfig{MaxConcurrent: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		time.Sleep(5 * time.Millisecond)
		stopWithin(t, d, 10*time.Second, "in goroutine-leak round")
	}
}
