package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

// fakeHook records the Yield/Resume protocol and lets tests script the
// park decision and abort channel.
type fakeHook struct {
	mu      sync.Mutex
	yields  int
	resumes int
	aborted []bool
	park    bool
	abort   chan struct{}
}

func (h *fakeHook) Yield(q *Queue) (bool, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.yields++
	if h.abort != nil {
		return h.park, h.abort
	}
	return h.park, nil
}

func (h *fakeHook) Resume(q *Queue, aborted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.resumes++
	h.aborted = append(h.aborted, aborted)
}

func (h *fakeHook) counts() (yields, resumes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.yields, h.resumes
}

// TestHookVetoOvershootsBound: park=false must push past the bound without
// blocking and without a Resume call.
func TestHookVetoOvershootsBound(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	h := &fakeHook{park: false}
	q.SetWaitHook(h)
	for i := 0; i < 5; i++ {
		done := make(chan struct{})
		go func(i int) {
			enqueue(q, stream.Element{Key: int64(i)})
			close(done)
		}(i)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("push %d blocked despite park veto", i)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (bound overshot)", q.Len())
	}
	yields, resumes := h.counts()
	if yields != 3 {
		t.Fatalf("yields = %d, want 3 (one per over-bound push)", yields)
	}
	if resumes != 0 {
		t.Fatalf("resumes = %d, want 0 (veto skips Resume)", resumes)
	}
	if q.FullBlocks() != 0 {
		t.Fatalf("FullBlocks = %d, want 0 (never parked)", q.FullBlocks())
	}
	if q.Overshoot() != 3 {
		t.Fatalf("Overshoot = %d, want 3 (one per over-bound push)", q.Overshoot())
	}
}

// TestHookAbortForcesPush: an abort wake must complete the push past the
// bound (no element lost) and report aborted=true to Resume.
func TestHookAbortForcesPush(t *testing.T) {
	q := New("q", 1)
	q.Subscribe(&recorder{}, 0)
	abort := make(chan struct{})
	h := &fakeHook{park: true, abort: abort}
	q.SetWaitHook(h)
	enqueue(q, stream.Element{Key: 0}) // fill to the bound
	done := make(chan struct{})
	go func() {
		enqueue(q, stream.Element{Key: 1})
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "producer never parked")
	close(abort)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted push never completed")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (abort force-pushes past bound)", q.Len())
	}
	if q.Overshoot() != 1 {
		t.Fatalf("Overshoot = %d, want 1 (the forced element)", q.Overshoot())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.resumes != 1 || len(h.aborted) != 1 || !h.aborted[0] {
		t.Fatalf("Resume calls = %d aborted = %v, want one aborted resume", h.resumes, h.aborted)
	}
}

// TestHookResumeOnPoisonWake: a poison wake while parked must still call
// Resume exactly once (with aborted=false) — dropping the element is the
// queue's business, rebalancing locks is the hook's.
func TestHookResumeOnPoisonWake(t *testing.T) {
	q := New("q", 1)
	h := &fakeHook{park: true}
	q.SetWaitHook(h)
	enqueue(q, stream.Element{Key: 0})
	done := make(chan struct{})
	go func() {
		enqueue(q, stream.Element{Key: 1})
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "producer never parked")
	q.Poison()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poisoned push never returned")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.resumes != 1 || len(h.aborted) != 1 || h.aborted[0] {
		t.Fatalf("Resume calls = %d aborted = %v, want one non-aborted resume", h.resumes, h.aborted)
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped())
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (poisoned element not enqueued)", q.Len())
	}
}

// TestHookBatchRemainderForced: once a batch push is aborted, the whole
// remainder must land past the bound in one go rather than re-parking per
// chunk.
func TestHookBatchRemainderForced(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	abort := make(chan struct{})
	h := &fakeHook{park: true, abort: abort}
	q.SetWaitHook(h)
	es := make([]stream.Element, 10)
	for i := range es {
		es[i] = stream.Element{Key: int64(i)}
	}
	done := make(chan struct{})
	go func() {
		q.ProcessBatch(0, es)
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "batch producer never parked")
	close(abort)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted batch push never completed")
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want all 10 (remainder forced past bound)", q.Len())
	}
	if q.Overshoot() != 8 {
		t.Fatalf("Overshoot = %d, want 8 (whole remainder past bound 2)", q.Overshoot())
	}
	yields, resumes := h.counts()
	if yields != 1 || resumes != 1 {
		t.Fatalf("yields=%d resumes=%d, want 1/1 (no re-park after abort)", yields, resumes)
	}
}

// TestHookCountersUnderDrain: a normal park-then-space wake must meter
// FullBlocks and BlockedNS and respect the bound throughout.
func TestHookCountersUnderDrain(t *testing.T) {
	const n = 200
	const bound = 4
	q := New("q", bound)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	h := &fakeHook{park: true}
	q.SetWaitHook(h)
	go func() {
		for i := 0; i < n; i++ {
			enqueue(q, stream.Element{Key: int64(i)})
		}
		q.Done(0)
	}()
	for open := true; open; {
		_, open = drain(q, 3)
		time.Sleep(50 * time.Microsecond)
	}
	if rec.len() != n {
		t.Fatalf("delivered %d, want %d", rec.len(), n)
	}
	if q.MaxLen() > bound {
		t.Fatalf("MaxLen %d exceeds bound %d", q.MaxLen(), bound)
	}
	if q.FullBlocks() == 0 {
		t.Fatal("producer never stalled despite drain being slower than push")
	}
	if q.BlockedNS() <= 0 {
		t.Fatalf("BlockedNS = %d with %d full-blocks", q.BlockedNS(), q.FullBlocks())
	}
	yields, resumes := h.counts()
	if yields != resumes {
		t.Fatalf("yields=%d resumes=%d, want balanced", yields, resumes)
	}
	if uint64(yields) != q.FullBlocks() {
		t.Fatalf("yields=%d but FullBlocks=%d", yields, q.FullBlocks())
	}
	if q.Overshoot() != 0 {
		t.Fatalf("Overshoot = %d, want 0 (space wakes never breach the bound)", q.Overshoot())
	}
}

// TestHookNilAfterInstall: uninstalling the hook restores plain blocking
// behavior.
func TestHookNilAfterInstall(t *testing.T) {
	q := New("q", 1)
	q.Subscribe(&recorder{}, 0)
	h := &fakeHook{park: true}
	q.SetWaitHook(h)
	q.SetWaitHook(nil)
	enqueue(q, stream.Element{Key: 0})
	var pushed atomic.Bool
	go func() {
		enqueue(q, stream.Element{Key: 1})
		pushed.Store(true)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "producer never parked")
	if pushed.Load() {
		t.Fatal("push completed while queue was full")
	}
	if yields, _ := h.counts(); yields != 0 {
		t.Fatalf("uninstalled hook still consulted: %d yields", yields)
	}
	drain(q, 1)
	waitCond(t, func() bool { return pushed.Load() }, "push never completed after drain")
}

// waitCond polls cond with a deadline.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
