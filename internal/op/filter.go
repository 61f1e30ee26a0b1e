package op

import "github.com/dsms/hmts/internal/stream"

// Filter is a selection: it forwards exactly the elements satisfying a
// predicate. Selections are the canonical low-cost operators the virtual
// operator concept was designed around (paper §3.1: a chain of directly
// connected selections behaves as one VO computing their conjunction).
type Filter struct {
	Base
	pred func(stream.Element) bool
}

// NewFilter returns a selection with the given predicate.
func NewFilter(name string, pred func(stream.Element) bool) *Filter {
	if pred == nil {
		panic("op: nil filter predicate")
	}
	f := &Filter{pred: pred}
	f.InitBase(name, 1)
	return f
}

// NewKeyModFilter returns a selection passing elements whose Key mod m is
// below limit — a deterministic way to realize an exact selectivity
// limit/m over uniformly distributed keys, as the paper's experiments do.
func NewKeyModFilter(name string, m, limit int64) *Filter {
	if m <= 0 {
		panic("op: modulus must be positive")
	}
	return NewFilter(name, func(e stream.Element) bool {
		k := e.Key % m
		if k < 0 {
			k += m
		}
		return k < limit
	})
}

// ProcessBatch implements Sink: the batch is filtered into the
// operator's output buffer and forwarded with one stats update and one
// fan-out dispatch.
func (f *Filter) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := f.BeginWorkBatch(es)
	out := f.scratch(len(es))
	for _, e := range es {
		if f.pred(e) {
			out = append(out, e)
		}
	}
	f.flush(out)
	f.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (f *Filter) Done(port int) {
	if f.MarkDone(port) {
		f.Close()
	}
}
