package ingest

import (
	"sync"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

func el(key int64) stream.Element { return stream.Element{TS: 1, Key: key} }

// drain pops everything currently buffered.
func drain(t *testing.T, b *Buffer) []stream.Element {
	t.Helper()
	var out []stream.Element
	scratch := make([]stream.Element, b.Cap())
	for b.Len() > 0 {
		n, _ := b.PopWait(scratch, nil)
		out = append(out, scratch[:n]...)
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, DropNewest, DropOldest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestDropNewest(t *testing.T) {
	b := NewBuffer(3, DropNewest)
	for i := int64(0); i < 3; i++ {
		if !b.Push(el(i)) {
			t.Fatalf("push %d should fit", i)
		}
	}
	if b.Push(el(3)) || b.Push(el(4)) {
		t.Fatal("full buffer must reject under DropNewest")
	}
	if b.Accepted() != 3 || b.Dropped() != 2 {
		t.Fatalf("accepted=%d dropped=%d", b.Accepted(), b.Dropped())
	}
	got := drain(t, b)
	if len(got) != 3 || got[0].Key != 0 || got[2].Key != 2 {
		t.Fatalf("oldest elements must survive: %+v", got)
	}
}

func TestDropOldest(t *testing.T) {
	b := NewBuffer(3, DropOldest)
	for i := int64(0); i < 5; i++ {
		if !b.Push(el(i)) {
			t.Fatalf("DropOldest must always admit, push %d", i)
		}
	}
	if b.Accepted() != 5 || b.Dropped() != 2 {
		t.Fatalf("accepted=%d dropped=%d", b.Accepted(), b.Dropped())
	}
	got := drain(t, b)
	if len(got) != 3 || got[0].Key != 2 || got[2].Key != 4 {
		t.Fatalf("newest elements must survive: %+v", got)
	}
}

func TestBlockBackpressure(t *testing.T) {
	b := NewBuffer(2, Block)
	b.Push(el(0))
	b.Push(el(1))
	admitted := make(chan bool)
	go func() { admitted <- b.Push(el(2)) }()
	select {
	case <-admitted:
		t.Fatal("push into a full Block buffer must wait")
	case <-time.After(20 * time.Millisecond):
	}
	scratch := make([]stream.Element, 1)
	if n, open := b.PopWait(scratch, nil); n != 1 || !open || scratch[0].Key != 0 {
		t.Fatalf("pop: n=%d open=%v", n, open)
	}
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("released push must be admitted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("freeing a slot must release the blocked producer")
	}
	if b.Dropped() != 0 || b.Accepted() != 3 {
		t.Fatalf("accepted=%d dropped=%d", b.Accepted(), b.Dropped())
	}
}

func TestCloseReleasesBlockedProducer(t *testing.T) {
	b := NewBuffer(1, Block)
	b.Push(el(0))
	admitted := make(chan bool)
	go func() { admitted <- b.Push(el(1)) }()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case ok := <-admitted:
		if ok {
			t.Fatal("a push released by Close must report rejection")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close must release blocked producers")
	}
	// The buffered element still drains, then the stream ends.
	scratch := make([]stream.Element, 4)
	if n, open := b.PopWait(scratch, nil); n != 1 || !open {
		t.Fatalf("pop after close: n=%d open=%v", n, open)
	}
	if n, open := b.PopWait(scratch, nil); n != 0 || open {
		t.Fatalf("drained closed buffer must finish: n=%d open=%v", n, open)
	}
	if !b.Closed() {
		t.Fatal("Closed() should report true")
	}
	b.Close() // idempotent
	if b.Push(el(2)) {
		t.Fatal("push after close must be rejected")
	}
}

func TestPopWaitStop(t *testing.T) {
	b := NewBuffer(4, Block)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n, open := b.PopWait(make([]stream.Element, 4), stop)
		if n != 0 || open {
			t.Errorf("aborted wait: n=%d open=%v", n, open)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stop must abort PopWait")
	}
}

func TestPopWaitWakesOnPush(t *testing.T) {
	b := NewBuffer(4, Block)
	got := make(chan stream.Element, 1)
	go func() {
		scratch := make([]stream.Element, 4)
		n, _ := b.PopWait(scratch, nil)
		if n >= 1 {
			got <- scratch[0]
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park on wake
	b.Push(el(7))
	select {
	case e := <-got:
		if e.Key != 7 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push into an empty buffer must wake the sleeping consumer")
	}
}

func TestTimestampStamping(t *testing.T) {
	b := NewBuffer(4, Block)
	b.Push(stream.Element{Key: 1})        // zero TS: stamped at arrival
	b.Push(stream.Element{Key: 2, TS: 5}) // explicit TS: preserved
	got := drain(t, b)
	if got[0].TS == 0 {
		t.Fatal("zero timestamp must be stamped on admission")
	}
	if got[1].TS != 5 {
		t.Fatalf("explicit timestamp must be preserved: %d", got[1].TS)
	}
}

func TestStatsLagAndMaxLen(t *testing.T) {
	b := NewBuffer(8, DropNewest)
	if st := b.Stats(); st.LagNS != 0 || st.Len != 0 {
		t.Fatalf("empty buffer stats: %+v", st)
	}
	b.Push(el(0))
	time.Sleep(5 * time.Millisecond)
	b.Push(el(1))
	st := b.Stats()
	if st.Len != 2 || st.Cap != 8 || st.MaxLen != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.LagNS < int64(4*time.Millisecond) {
		t.Fatalf("lag must reflect the oldest element's age: %d", st.LagNS)
	}
	drain(t, b)
	if st := b.Stats(); st.MaxLen != 2 || st.Len != 0 {
		t.Fatalf("high-water mark must persist: %+v", st)
	}
}

func TestPushBatchFitsAndOverflows(t *testing.T) {
	es := func(lo, hi int64) []stream.Element {
		out := make([]stream.Element, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, el(i))
		}
		return out
	}
	// DropNewest: admit what fits, reject the rest.
	b := NewBuffer(4, DropNewest)
	if n := b.PushBatch(es(0, 6)); n != 4 {
		t.Fatalf("admitted %d", n)
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped %d", b.Dropped())
	}
	got := drain(t, b)
	if got[0].Key != 0 || got[3].Key != 3 {
		t.Fatalf("first elements must survive: %+v", got)
	}
	// DropOldest: everything admitted, oldest evicted.
	b = NewBuffer(4, DropOldest)
	b.PushBatch(es(0, 3))
	if n := b.PushBatch(es(3, 6)); n != 3 {
		t.Fatalf("admitted %d", n)
	}
	got = drain(t, b)
	if len(got) != 4 || got[0].Key != 2 || got[3].Key != 5 {
		t.Fatalf("newest must survive: %+v", got)
	}
	// DropOldest with a batch larger than the whole buffer: only the last
	// cap elements can survive. Here 3 fit immediately, the remainder of 7
	// is truncated to the last 4 (3 dropped on arrival) which then evict
	// everything buffered (4 more drops).
	b = NewBuffer(4, DropOldest)
	b.Push(el(-1))
	if n := b.PushBatch(es(0, 10)); n != 7 {
		t.Fatalf("oversized batch admitted %d", n)
	}
	if b.Dropped() != 7 {
		t.Fatalf("dropped %d", b.Dropped())
	}
	got = drain(t, b)
	if len(got) != 4 || got[0].Key != 6 || got[3].Key != 9 {
		t.Fatalf("last cap elements must survive: %+v", got)
	}
	// Closed buffer: batch rejected outright.
	b.Close()
	if n := b.PushBatch(es(0, 3)); n != 0 {
		t.Fatalf("closed buffer admitted %d", n)
	}
}

func TestPushBatchBlockWaits(t *testing.T) {
	b := NewBuffer(2, Block)
	es := []stream.Element{el(0), el(1), el(2), el(3), el(4)}
	var consumed []stream.Element
	done := make(chan int)
	go func() { done <- b.PushBatch(es) }()
	scratch := make([]stream.Element, 2)
	deadline := time.After(5 * time.Second)
	for len(consumed) < len(es) {
		select {
		case <-deadline:
			t.Fatalf("batch did not drain: %d consumed", len(consumed))
		default:
		}
		n, open := b.PopWait(scratch, nil)
		consumed = append(consumed, scratch[:n]...)
		if !open {
			break
		}
	}
	if n := <-done; n != len(es) {
		t.Fatalf("Block batch must admit everything: %d", n)
	}
	for i, e := range consumed {
		if e.Key != int64(i) {
			t.Fatalf("order broken at %d: %+v", i, consumed)
		}
	}
}

func TestConcurrentProducers(t *testing.T) {
	const producers, each = 8, 1000
	b := NewBuffer(64, Block)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Push(el(int64(p*each + i)))
			}
		}(p)
	}
	go func() {
		wg.Wait()
		b.Close()
	}()
	seen := make(map[int64]bool)
	scratch := make([]stream.Element, 64)
	for {
		n, open := b.PopWait(scratch, nil)
		for _, e := range scratch[:n] {
			if seen[e.Key] {
				t.Fatalf("duplicate key %d", e.Key)
			}
			seen[e.Key] = true
		}
		if !open {
			break
		}
	}
	if len(seen) != producers*each {
		t.Fatalf("lost elements: %d/%d", len(seen), producers*each)
	}
	if b.Accepted() != producers*each || b.Dropped() != 0 {
		t.Fatalf("accepted=%d dropped=%d", b.Accepted(), b.Dropped())
	}
}

func TestSetPolicyReleasesBlockedProducerOnDrain(t *testing.T) {
	b := NewBuffer(1, Block)
	b.Push(el(0))
	res := make(chan bool)
	go func() { res <- b.Push(el(1)) }()
	time.Sleep(10 * time.Millisecond)
	b.SetPolicy(DropNewest)
	// The blocked producer re-checks policy when space traffic wakes it.
	scratch := make([]stream.Element, 1)
	b.PopWait(scratch, nil)
	select {
	case <-res:
	case <-time.After(2 * time.Second):
		t.Fatal("producer should resolve after policy switch + drain")
	}
}

func TestSourceShedOverride(t *testing.T) {
	s := NewSource("ext", 4, Block, 0)
	if s.Shedding() {
		t.Fatal("fresh source must not shed")
	}
	s.Shed(true)
	s.Shed(true) // idempotent
	if !s.Shedding() || s.buf.Policy() != DropNewest {
		t.Fatal("shed must force DropNewest")
	}
	// A policy change while shedding is deferred until release.
	s.SetPolicy(DropOldest)
	if s.buf.Policy() != DropNewest {
		t.Fatal("configured policy must not preempt the shed override")
	}
	s.Shed(false)
	s.Shed(false) // idempotent
	if s.Shedding() || s.buf.Policy() != DropOldest {
		t.Fatal("release must restore the configured policy")
	}
	st := s.IngestStats()
	if st.Shedding || st.Policy != DropOldest {
		t.Fatalf("stats %+v", st)
	}
}

// countSink implements op.Sink, recording what arrives.
type countSink struct {
	mu      sync.Mutex
	els     []stream.Element
	batches int
	done    chan struct{}
}

func newCountSink() *countSink { return &countSink{done: make(chan struct{})} }

func (c *countSink) ProcessBatch(port int, es []stream.Element) {
	c.mu.Lock()
	c.els = append(c.els, es...)
	c.batches++
	c.mu.Unlock()
}

func (c *countSink) Done(port int) { close(c.done) }

func TestSourceRunDrainsAndFinishes(t *testing.T) {
	s := NewSource("ext", 128, Block, 32)
	sink := newCountSink()
	go s.Run(sink, 0)
	for i := int64(0); i < 500; i++ {
		s.Push(el(i))
	}
	s.Close()
	select {
	case <-sink.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run must finish after Close drains")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.els) != 500 {
		t.Fatalf("delivered %d", len(sink.els))
	}
	for i, e := range sink.els {
		if e.Key != int64(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if sink.batches >= len(sink.els) {
		t.Fatal("the downstream sink should receive bursts, not only one-element batches")
	}
}

func TestSourceStopAborts(t *testing.T) {
	s := NewSource("ext", 128, Block, 32)
	sink := newCountSink()
	go s.Run(sink, 0)
	s.Push(el(1))
	s.Stop()
	select {
	case <-sink.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop must abort Run")
	}
	if s.Push(el(2)) {
		t.Fatal("push after Stop must be rejected")
	}
}
