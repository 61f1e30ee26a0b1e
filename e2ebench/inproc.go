package main

import (
	"fmt"
	"sync"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/ql"
)

// inprocStats is the engine's own leg: the same seeded stream pushed
// through the public API in this process, timed from each element's due
// time to Sink.Process, with no wire and no egress.
type inprocStats struct {
	latP50, latP99 float64 // ms
	genP50         float64 // ms, due -> PushBatch call
	throughput     float64 // el/s, saturation phase
	pushNSPerEl    float64 // PushBatch time per element, paced phase
	registerUS     float64 // mean ql.Parse + Engine.AddQuery (incl. ql.Plan)
	executors      int
}

// stampSink records, for elements in the measured window, the time from
// the element's due time to its delivery.
type stampSink struct {
	mu    sync.Mutex
	p     *runPlan
	epoch int64
	lat   hist
	last  int64
}

func (s *stampSink) Process(_ int, e hmts.Element) {
	now := mono()
	s.mu.Lock()
	idx := (e.TS - tsBase) / s.p.spacing
	if idx >= s.p.warmN && idx < s.p.warmN+s.p.measN {
		s.lat.record(now - (s.epoch + idx*s.p.spacing))
	}
	s.last = now
	s.mu.Unlock()
}

func (s *stampSink) Done(int) {}

func parseMode(m string) (hmts.Mode, error) {
	switch m {
	case "hmts":
		return hmts.ModeHMTS, nil
	case "di":
		return hmts.ModeDI, nil
	}
	return 0, fmt.Errorf("unknown mode %q", m)
}

func runInProcess(p *runPlan, seed uint64) (inprocStats, error) {
	var st inprocStats
	mode, err := parseMode(p.w.mode)
	if err != nil {
		return st, err
	}
	policy, err := hmts.ParseOverloadPolicy("block")
	if err != nil {
		return st, err
	}
	eng := hmts.New()
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: policy})
	sources := map[string]*hmts.Stream{"ext": eng.Source("ext", ext.Spec())}
	sinks := make([]*stampSink, len(p.w.standing))
	var register time.Duration
	for i, q := range p.w.standing {
		sinks[i] = &stampSink{p: p}
		start := time.Now()
		parsed, err := ql.Parse(q.text)
		if err != nil {
			return st, err
		}
		err = eng.AddQuery(fmt.Sprintf("q%d", i), sinks[i], func() (*hmts.Stream, error) {
			return ql.Plan(eng, sources, parsed)
		})
		register += time.Since(start)
		if err != nil {
			return st, err
		}
	}
	st.registerUS = float64(register.Microseconds()) / float64(len(sinks))
	if err := eng.Run(hmts.RunConfig{Mode: mode, QueueBound: 1024}); err != nil {
		return st, err
	}
	defer eng.Stop()
	epoch := mono() + int64(20*time.Millisecond)
	for _, s := range sinks {
		s.epoch = epoch
	}
	in := newInput(seed, p.spacing)
	els := make([]hmts.Element, 0, 1<<16)
	push := func(n int64) time.Duration {
		els = els[:0]
		for k := int64(0); k < n; k++ {
			ts, key, val := in.next()
			els = append(els, hmts.Element{TS: ts, Key: key, Val: val})
		}
		start := time.Now()
		ext.PushBatch(els)
		return time.Since(start)
	}
	var gen hist
	var pushTime time.Duration
	var pushed int64
	for tick := int64(1); in.i < p.pacedN; tick++ {
		sleepUntil(epoch + tick*int64(framePeriod))
		now := mono()
		due := min((now-epoch)/p.spacing+1, p.pacedN)
		first := in.i
		if n := due - first; n > 0 {
			for i := max(first, p.warmN); i < due && i < p.warmN+p.measN; i++ {
				gen.record(now - (epoch + i*p.spacing))
			}
			pushTime += push(n)
			pushed += n
		}
		if tick == 1000 {
			st.executors = eng.Metrics().Executors
		}
	}
	satStart := mono()
	satFirst := in.i
	for deadline := satStart + int64(p.ph.saturation); mono() < deadline; {
		push(saturationRecs)
	}
	satN := in.i - satFirst
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		return st, err
	}
	var lat hist
	var last int64
	for _, s := range sinks {
		lat.merge(&s.lat)
		last = max(last, s.last)
	}
	st.latP50 = float64(lat.quantile(0.50)) / 1e6
	st.latP99 = float64(lat.quantile(0.99)) / 1e6
	st.genP50 = float64(gen.quantile(0.50)) / 1e6
	st.throughput = float64(satN) / (float64(last-satStart) / 1e9)
	st.pushNSPerEl = float64(pushTime.Nanoseconds()) / float64(pushed)
	return st, nil
}
