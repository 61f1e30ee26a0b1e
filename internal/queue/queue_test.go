package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

// recorder is a minimal downstream sink.
type recorder struct {
	mu   sync.Mutex
	els  []stream.Element
	done []int
}

func (r *recorder) ProcessBatch(_ int, es []stream.Element) {
	r.mu.Lock()
	r.els = append(r.els, es...)
	r.mu.Unlock()
}

func (r *recorder) Done(port int) {
	r.mu.Lock()
	r.done = append(r.done, port)
	r.mu.Unlock()
}

// enqueue hands q one element as a one-element batch. It is the single way
// tests in this package enqueue an individual element.
func enqueue(q *Queue, e stream.Element) { q.ProcessBatch(0, []stream.Element{e}) }

// drain delivers up to n elements (at least one) through DrainBatch with a
// scratch slice of that size.
func drain(q *Queue, n int) (delivered int, open bool) {
	return q.DrainBatch(make([]stream.Element, max(n, 1)), n)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.els)
}

func TestFIFOOrder(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 3)
	for i := 0; i < 1000; i++ {
		enqueue(q, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	n, open := drain(q, 10_000)
	if n != 1000 || open {
		t.Fatalf("Drain = (%d, %v), want (1000, false)", n, open)
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d: key %d", i, e.Key)
		}
	}
	if len(rec.done) != 1 || rec.done[0] != 3 {
		t.Fatalf("Done propagation: %v", rec.done)
	}
}

func TestDrainBatching(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 100; i++ {
		enqueue(q, stream.Element{Key: int64(i)})
	}
	n, open := drain(q, 30)
	if n != 30 || !open {
		t.Fatalf("drain(30) = (%d, %v)", n, open)
	}
	if q.Len() != 70 {
		t.Fatalf("Len after partial drain: %d", q.Len())
	}
	n, open = drain(q, 0) // max <= 0 behaves as 1
	if n != 1 || !open {
		t.Fatalf("drain(0) = (%d, %v)", n, open)
	}
}

func TestDoneOnlyAfterDrainingBuffer(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	enqueue(q, stream.Element{Key: 1})
	q.Done(0)
	if q.Closed() {
		t.Fatal("queue closed before drain")
	}
	// The drain that empties the buffer with the input already closed
	// propagates Done in the same call — even when it delivered exactly
	// max elements — so the executor never pays a wakeup just to learn
	// the queue is finished.
	n, open := drain(q, 1)
	if n != 1 || open {
		t.Fatalf("closing drain = (%d, %v), want (1, false)", n, open)
	}
	if len(rec.done) != 1 || !q.Closed() {
		t.Fatal("Done not propagated exactly once")
	}
	// Further drains stay closed and quiet.
	if n, open := drain(q, 5); n != 0 || open {
		t.Fatalf("post-close drain = (%d, %v)", n, open)
	}
	if len(rec.done) != 1 {
		t.Fatal("duplicate Done")
	}
}

// TestDrainExactMaxClosesQueue pins the regression where Drain delivered
// exactly max elements that emptied the buffer with the input closed but
// still reported open=true, costing the executor a wasted wakeup before
// Done propagated.
func TestDrainExactMaxClosesQueue(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 64; i++ {
		enqueue(q, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	n, open := drain(q, 64)
	if n != 64 || open {
		t.Fatalf("drain(64) = (%d, %v), want (64, false)", n, open)
	}
	if len(rec.done) != 1 || !q.Closed() {
		t.Fatalf("Done not propagated with the closing batch: done=%v closed=%v", rec.done, q.Closed())
	}
	// Input still open: an exactly-max drain that empties the buffer must
	// NOT close the queue.
	q2 := New("q2", 0)
	rec2 := &recorder{}
	q2.Subscribe(rec2, 0)
	enqueue(q2, stream.Element{})
	if n, open := drain(q2, 1); n != 1 || !open {
		t.Fatalf("drain(1) with live input = (%d, %v), want (1, true)", n, open)
	}
	if len(rec2.done) != 0 {
		t.Fatal("Done propagated while input still open")
	}
}

func TestMultipleProducers(t *testing.T) {
	q := New("q", 0)
	q.SetProducers(3)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	q.Done(0)
	q.Done(0)
	if q.InputClosed() {
		t.Fatal("input closed after 2 of 3 producers")
	}
	q.Done(0)
	if !q.InputClosed() {
		t.Fatal("input should be closed")
	}
	if _, open := drain(q, 1); open {
		t.Fatal("drain should close the queue")
	}
}

func TestEnqueueAfterCloseIsBug(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	q.Done(0)
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue into closed queue should panic")
		}
	}()
	enqueue(q, stream.Element{})
}

func TestBoundedBackpressure(t *testing.T) {
	q := New("q", 4)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 4; i++ {
		enqueue(q, stream.Element{Key: int64(i)})
	}
	blocked := make(chan struct{})
	go func() {
		enqueue(q, stream.Element{Key: 99}) // must block on full queue
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("producer did not block on a full bounded queue")
	case <-time.After(20 * time.Millisecond):
	}
	drain(q, 1)
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("producer did not unblock after drain made room")
	}
	q.Done(0)
	for {
		if _, open := drain(q, 10); !open {
			break
		}
	}
	if rec.len() != 5 {
		t.Fatalf("delivered %d, want 5", rec.len())
	}
}

func TestStatsCounters(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	for i := 0; i < 10; i++ {
		enqueue(q, stream.Element{TS: int64(i) * 50})
	}
	if q.Enqueued() != 10 || q.Dequeued() != 0 || q.Len() != 10 || q.MaxLen() != 10 {
		t.Fatalf("enq=%d deq=%d len=%d max=%d", q.Enqueued(), q.Dequeued(), q.Len(), q.MaxLen())
	}
	drain(q, 4)
	if q.Dequeued() != 4 || q.Len() != 6 || q.MaxLen() != 10 {
		t.Fatalf("after drain: deq=%d len=%d max=%d", q.Dequeued(), q.Len(), q.MaxLen())
	}
	if d := q.Stats().InterarrivalNS(); d <= 0 {
		t.Fatalf("interarrival estimate %v", d)
	}
}

func TestFrontTS(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	if _, ok := q.FrontTS(); ok {
		t.Fatal("empty queue has a front timestamp")
	}
	enqueue(q, stream.Element{TS: 42})
	enqueue(q, stream.Element{TS: 43})
	if ts, ok := q.FrontTS(); !ok || ts != 42 {
		t.Fatalf("FrontTS = (%d, %v)", ts, ok)
	}
}

func TestWaitWorkWakesOnEnqueue(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- q.WaitWork(stop) }()
	time.Sleep(5 * time.Millisecond)
	enqueue(q, stream.Element{})
	select {
	case v := <-got:
		if !v {
			t.Fatal("WaitWork returned false with work available")
		}
	case <-time.After(time.Second):
		t.Fatal("WaitWork missed the wakeup")
	}
}

func TestWaitWorkWakesOnClose(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- q.WaitWork(stop) }()
	time.Sleep(5 * time.Millisecond)
	q.Done(0)
	if v := <-got; !v {
		t.Fatal("WaitWork should report the pending Done as work")
	}
	drain(q, 1)
	if q.WaitWork(stop) {
		t.Fatal("WaitWork on a finished queue should return false")
	}
}

func TestWaitWorkAbortsOnStop(t *testing.T) {
	q := New("q", 0)
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- q.WaitWork(stop) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case v := <-got:
		if v {
			t.Fatal("aborted WaitWork returned true")
		}
	case <-time.After(time.Second):
		t.Fatal("WaitWork ignored stop")
	}
}

func TestNotifyCallback(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	pings := 0
	q.SetNotify(func() { pings++ })
	enqueue(q, stream.Element{})
	if pings != 1 {
		t.Fatalf("pings after enqueue into empty queue: %d, want 1", pings)
	}
	// Enqueues into a non-empty queue ping too: length-ordered strategies
	// need to hear about the growth.
	enqueue(q, stream.Element{})
	if pings != 2 {
		t.Fatalf("pings after second enqueue: %d, want 2", pings)
	}
	// The gauges are published before the callback fires.
	saw := -1
	q.SetNotify(func() { saw = q.Len() })
	enqueue(q, stream.Element{TS: 9})
	if saw != 3 {
		t.Fatalf("callback observed len %d, want 3", saw)
	}
	// Input close pings.
	pings = 0
	q.SetNotify(func() { pings++ })
	q.Done(0)
	if pings != 1 {
		t.Fatalf("pings on input close: %d, want 1", pings)
	}
}

func TestGaugesTrackQueueState(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	if q.HasWork() || q.InputClosed() || q.Closed() {
		t.Fatal("fresh queue reports work or closure")
	}
	enqueue(q, stream.Element{TS: 7})
	enqueue(q, stream.Element{TS: 8})
	if ts, ok := q.FrontTS(); !ok || ts != 7 {
		t.Fatalf("FrontTS = (%d, %v), want (7, true)", ts, ok)
	}
	if q.Len() != 2 || !q.HasWork() {
		t.Fatalf("len=%d hasWork=%v", q.Len(), q.HasWork())
	}
	drain(q, 1)
	if ts, ok := q.FrontTS(); !ok || ts != 8 {
		t.Fatalf("FrontTS after pop = (%d, %v), want (8, true)", ts, ok)
	}
	q.Done(0)
	if !q.InputClosed() || q.Closed() {
		t.Fatalf("inputClosed=%v closed=%v after Done", q.InputClosed(), q.Closed())
	}
	drain(q, 4) // deliver the remaining element and propagate Done
	if !q.Closed() || q.HasWork() || q.Len() != 0 {
		t.Fatalf("closed=%v hasWork=%v len=%d after final drain", q.Closed(), q.HasWork(), q.Len())
	}
}

// TestConcurrentProducersConservation: elements in == elements out, no
// duplicates, per-producer order preserved.
func TestConcurrentProducersConservation(t *testing.T) {
	const producers, per = 8, 5_000
	q := New("q", 256)
	q.SetProducers(producers)
	rec := &recorder{}
	q.Subscribe(rec, 0)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				enqueue(q, stream.Element{Key: int64(p), Val: float64(i)})
			}
			q.Done(0)
		}(p)
	}
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			if _, open := drain(q, 64); !open {
				return
			}
			q.WaitWork(nil)
		}
	}()
	wg.Wait()
	<-consumerDone

	if got := rec.len(); got != producers*per {
		t.Fatalf("conservation violated: %d of %d delivered", got, producers*per)
	}
	next := make([]float64, producers)
	for _, e := range rec.els {
		if e.Val != next[e.Key] {
			t.Fatalf("producer %d order violated: got %v, want %v", e.Key, e.Val, next[e.Key])
		}
		next[e.Key]++
	}
}

// Property: for any sequence of enqueue batches, draining returns exactly
// the enqueued elements in order.
func TestDrainPropertyFIFO(t *testing.T) {
	if err := quick.Check(func(batches []uint8) bool {
		q := New("q", 0)
		rec := &recorder{}
		q.Subscribe(rec, 0)
		want := 0
		for _, b := range batches {
			for i := 0; i < int(b%17); i++ {
				enqueue(q, stream.Element{Key: int64(want)})
				want++
			}
			drain(q, 7) // interleaved partial drains
		}
		q.Done(0)
		for {
			if _, open := drain(q, 13); !open {
				break
			}
		}
		if rec.len() != want {
			return false
		}
		for i, e := range rec.els {
			if e.Key != int64(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRingGrowthPreservesOrderAcrossWrap(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	next := int64(0)
	// Force wrap-around and growth: enqueue 24, drain 16, repeatedly.
	for round := 0; round < 50; round++ {
		for i := 0; i < 24; i++ {
			enqueue(q, stream.Element{Key: next})
			next++
		}
		drain(q, 16)
	}
	q.Done(0)
	for {
		if _, open := drain(q, 64); !open {
			break
		}
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order broken at %d after ring growth: %d", i, e.Key)
		}
	}
}

func TestUnsubscribe(t *testing.T) {
	q := New("q", 0)
	a, b := &recorder{}, &recorder{}
	q.Subscribe(a, 0)
	q.Subscribe(b, 1)
	enqueue(q, stream.Element{})
	drain(q, 1)
	q.Unsubscribe(a, 0)
	enqueue(q, stream.Element{})
	drain(q, 1)
	if a.len() != 1 || b.len() != 2 {
		t.Fatalf("a=%d b=%d", a.len(), b.len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsubscribing unknown edge should panic")
		}
	}()
	q.Unsubscribe(a, 0)
}

func TestPoisonReleasesBlockedProducer(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	enqueue(q, stream.Element{})
	enqueue(q, stream.Element{})
	unblocked := make(chan struct{})
	go func() {
		enqueue(q, stream.Element{Key: 99}) // blocks: full
		close(unblocked)
	}()
	time.Sleep(5 * time.Millisecond)
	q.Poison()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Poison did not release the blocked producer")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", q.Dropped())
	}
	// Further enqueues are dropped silently; buffered elements drain.
	enqueue(q, stream.Element{Key: 100})
	if q.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", q.Dropped())
	}
	if q.Len() != 2 {
		t.Fatalf("buffered %d, want the 2 pre-poison elements", q.Len())
	}
	q.Poison() // idempotent
}
