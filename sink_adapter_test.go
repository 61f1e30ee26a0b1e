package hmts_test

import (
	"sync"
	"testing"

	hmts "github.com/dsms/hmts"
)

// elemSink is a user sink with only the required Process/Done methods.
type elemSink struct{ *memSink }

// batchSink is a user sink that also takes whole batches.
type batchSink struct {
	*memSink
	mu       sync.Mutex
	maxBatch int
}

func (b *batchSink) ProcessBatch(port int, es []hmts.Element) {
	b.mu.Lock()
	b.maxBatch = max(b.maxBatch, len(es))
	b.mu.Unlock()
	for _, e := range es {
		b.memSink.Process(port, e)
	}
}

// TestUserSinkAdapter attaches a Process-only sink and a batch-capable
// sink through both Into and AddQuery. Each must receive every result in
// order followed by one Done; the batch-capable sink must be handed
// batches of more than one element, and the Process-only sink must still
// see the batched stream element by element.
func TestUserSinkAdapter(t *testing.T) {
	const n = 5000
	eng := hmts.New()
	src := eng.Source("s", hmts.GenerateStamped(n, 1e6, nil).Batched(64))
	even := func(e hmts.Element) bool { return e.Key%2 == 0 }

	intoElem := &elemSink{newMemSink()}
	intoBatch := &batchSink{memSink: newMemSink()}
	src.Where("even", even).Into("into-elem", intoElem)
	src.Where("even", even).Into("into-batch", intoBatch)

	qElem := &elemSink{newMemSink()}
	qBatch := &batchSink{memSink: newMemSink()}
	build := func() (*hmts.Stream, error) { return src.Where("even", even), nil }
	if err := eng.AddQuery("q-elem", qElem, build); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("q-batch", qBatch, build); err != nil {
		t.Fatal(err)
	}

	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()

	check := func(name string, m *memSink) {
		t.Helper()
		m.wait(t)
		els, done, afterDone := m.snapshot()
		if len(els) != n/2 || done != 1 || afterDone != 0 {
			t.Fatalf("%s: %d results, %d Done, %d after Done; want %d, 1, 0", name, len(els), done, afterDone, n/2)
		}
		for i, e := range els {
			if e.Key != int64(2*i) {
				t.Fatalf("%s: result %d has key %d, want %d", name, i, e.Key, 2*i)
			}
		}
	}
	check("Into/Process-only", intoElem.memSink)
	check("Into/batch", intoBatch.memSink)
	check("AddQuery/Process-only", qElem.memSink)
	check("AddQuery/batch", qBatch.memSink)
	for name, b := range map[string]*batchSink{"Into": intoBatch, "AddQuery": qBatch} {
		b.mu.Lock()
		most := b.maxBatch
		b.mu.Unlock()
		if most <= 1 {
			t.Fatalf("%s: batch-capable sink never saw a batch of more than one element", name)
		}
	}
}
