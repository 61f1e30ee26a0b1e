package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// perLayerSpec lists the per-layer metrics a traced run reports, in the
// order of BENCHMARK.json, with their units. The e2e.* ones are the
// untraced run's wall-clock figures (tcpRun.wallClock): their run-to-run
// spread on a shared 2-vCPU host exceeds any bound the benchmark may set,
// so they are reported here, ungated; every timed run's record has them.
var perLayerSpec = []struct{ name, unit string }{
	{"e2e.throughput_eps", "el/s"}, {"e2e.latency_p50_ms", "ms"}, {"e2e.latency_p99_ms", "ms"},
	{"e2e.mutate_p50_ms", "ms"}, {"e2e.setup_wall_s", "s"},
	{"hmtsd.pushb_rtt_us_p50", "us"}, {"hmtsd.pushb_rtt_us_p99", "us"},
	{"hmtsd.result_lines", "count"}, {"hmtsd.result_mb", "MB"},
	{"hmtsd.result_burst_gap_ms", "ms"}, {"hmtsd.egress_ms_p50", "ms"},
	{"ingest.accepted", "count"}, {"ingest.dropped", "count"}, {"ingest.backlog_max", "count"},
	{"ingest.lag_ms_p99", "ms"}, {"ingest.push_ns_per_el", "ns"},
	{"queue.enqueued", "count"}, {"queue.max_len", "count"}, {"queue.full_blocks", "count"},
	{"queue.blocked_ms", "ms"}, {"queue.overshoot", "count"},
	{"op.filter.cost_ns", "ns"}, {"op.agg.cost_ns", "ns"}, {"op.having.cost_ns", "ns"},
	{"op.split.cost_ns", "ns"}, {"op.replica.cost_ns", "ns"}, {"op.merge.cost_ns", "ns"},
	{"op.in", "count"}, {"op.out", "count"}, {"op.busy_ms", "ms"},
	{"shard.skew", "ratio"}, {"shard.replica_in", "count"},
	{"sched.executors", "count"}, {"sched.query_add_ms", "ms"}, {"sched.query_drop_ms", "ms"},
	{"sched.rebalance_ms", "ms"}, {"sched.post_mutation_p99_ms", "ms"},
	{"query.register_us", "us"}, {"query.shared_ops", "count"}, {"query.private_ops", "count"},
	{"daemon.cpu_util", "cores"}, {"client.cpu_util", "cores"}, {"gen.late_ms_max", "ms"},
	{"metrics.scrape_us", "us"},
	{"engine.latency_p50_ms", "ms"}, {"engine.latency_p99_ms", "ms"}, {"engine.throughput_eps", "el/s"},
	{"check.fail_frac", "ratio"}, {"layer.unattributed_frac", "ratio"},
	{"trace.throughput_ratio", "ratio"}, {"trace.latency_p50_ratio", "ratio"}, {"trace.latency_p99_ratio", "ratio"},
	{"baseline.gmp1_throughput_eps", "el/s"}, {"baseline.gmp1_cpu_ns_per_el", "ns"}, {"baseline.gmp2_speedup", "ratio"},
}

// opLayers are the operator classes whose c(v) the traced run reports.
var opLayers = []string{"filter", "agg", "having", "split", "replica", "merge"}

// opTotals sums one snapshot's operators per class: elements in and the
// busy time In×c(v).
type opTotals struct {
	in, busyNS map[string]float64
	allIn      uint64
	allOut     uint64
}

func sumOps(s *snapshot) opTotals {
	t := opTotals{in: map[string]float64{}, busyNS: map[string]float64{}}
	for _, o := range s.ops {
		c := opClass(o.name)
		t.in[c] += float64(o.in)
		t.busyNS[c] += float64(o.in) * o.costNS
		t.allIn += o.in
		t.allOut += o.out
	}
	return t
}

func (t opTotals) costNS(class string) float64 {
	if t.in[class] == 0 {
		return 0
	}
	return t.busyNS[class] / t.in[class]
}

func (t opTotals) busyMS() float64 {
	sum := 0.0
	for _, v := range t.busyNS {
		sum += v
	}
	return sum / 1e6
}

func (t *tcpRun) finalScrape() *snapshot {
	sc := t.s.rd.scrapes
	return sc[len(sc)-1].snap
}

// layerTable splits the untraced e2e p50 into measured layer shares and
// the daemon's CPU into operator busy time and the rest.
type layerTable struct {
	E2EP50, Generator, WireIngest, Engine, Egress, Unattributed float64 // ms
	UnattributedFrac                                            float64
	DaemonCPUMS, OpBusyMS, QueueBlockedMS                       float64
	Text                                                        string
}

func buildLayerTable(base, traced *tcpRun, inp inprocStats, gmp1 *tcpRun) layerTable {
	var lt layerTable
	lt.E2EP50 = ms(base.s.rd.lat.quantile(0.5))
	lt.Generator = ms(traced.s.wr.genDelay.quantile(0.5))
	lt.WireIngest = ms(traced.s.rd.pushRTT.quantile(0.5))
	lt.Engine = math.Max(inp.latP50-inp.genP50, 0)
	// hmtsd flushes RESULT lines in bursts; a result waits on average half
	// a burst gap in the session buffer.
	lt.Egress = ms(traced.s.rd.burstGap.quantile(0.5)) / 2
	lt.Unattributed = lt.E2EP50 - lt.Generator - lt.WireIngest - lt.Engine - lt.Egress
	lt.UnattributedFrac = math.Abs(lt.Unattributed) / lt.E2EP50
	ops := sumOps(traced.finalScrape())
	lt.DaemonCPUMS = float64(traced.daemonCPU.Milliseconds())
	lt.OpBusyMS = ops.busyMS()
	for _, q := range traced.finalScrape().queues {
		lt.QueueBlockedMS += float64(q.blockedMS)
	}
	var b strings.Builder
	pct := func(v, of float64) string { return fmt.Sprintf("%5.1f%%", 100*v/of) }
	fmt.Fprintf(&b, "e2e latency p50 (untraced)                %8.3f ms\n", lt.E2EP50)
	fmt.Fprintf(&b, "  generator  (due -> frame write)         %8.3f ms %s\n", lt.Generator, pct(lt.Generator, lt.E2EP50))
	fmt.Fprintf(&b, "  wire+ingest (PUSHB write -> OK, p50)    %8.3f ms %s\n", lt.WireIngest, pct(lt.WireIngest, lt.E2EP50))
	fmt.Fprintf(&b, "  engine (in-process due->sink - gen)     %8.3f ms %s\n", lt.Engine, pct(lt.Engine, lt.E2EP50))
	fmt.Fprintf(&b, "  egress (half the RESULT burst gap)      %8.3f ms %s\n", lt.Egress, pct(lt.Egress, lt.E2EP50))
	flag := ""
	if lt.UnattributedFrac > 0.15 {
		flag = "  <- over 15%: a layer nobody measures"
	}
	fmt.Fprintf(&b, "  unattributed                            %8.3f ms %s%s\n", lt.Unattributed, pct(lt.Unattributed, lt.E2EP50), flag)
	fmt.Fprintf(&b, "daemon CPU, traced run, whole process     %8.0f ms\n", lt.DaemonCPUMS)
	// c(v) is wall time per element: it includes the operators fused after
	// v in its VO and time v spent blocked pushing into a full queue, so
	// the sum can exceed the CPU the process used.
	fmt.Fprintf(&b, "  operator time (sum In x c(v), wall)     %8.0f ms %s\n", lt.OpBusyMS, pct(lt.OpBusyMS, lt.DaemonCPUMS))
	if other := lt.DaemonCPUMS - lt.OpBusyMS; other >= 0 {
		fmt.Fprintf(&b, "  other (wire decode, egress, scheduling) %8.0f ms %s\n", other, pct(other, lt.DaemonCPUMS))
	} else {
		fmt.Fprintf(&b, "  operator time exceeds CPU by %.0f ms: c(v) counts fused downstream work and blocking on full queues\n", -other)
	}
	fmt.Fprintf(&b, "  queue wait (producers parked; wall time, not CPU) %.0f ms\n", lt.QueueBlockedMS)
	for _, c := range opLayers {
		if ops.in[c] > 0 {
			fmt.Fprintf(&b, "    op %-8s in=%-10.0f c(v)=%6.0f ns busy=%8.1f ms\n", c, ops.in[c], ops.costNS(c), ops.busyNS[c]/1e6)
		}
	}
	if gmp1 != nil {
		one, two := gmp1.figures(), base.figures()
		o1, o2 := sumOps(gmp1.finalScrape()), sumOps(base.finalScrape())
		fmt.Fprintf(&b, "daemon GOMAXPROCS sweep (untraced)        GOMAXPROCS=1    GOMAXPROCS=%d\n", base.gmp)
		fmt.Fprintf(&b, "  throughput (el/s)                      %12.0f %15.0f\n", one["e2e.throughput_eps"], two["e2e.throughput_eps"])
		fmt.Fprintf(&b, "  daemon CPU per element (ns)            %12.0f %15.0f\n", one["cpu_ns_per_el"], two["cpu_ns_per_el"])
		fmt.Fprintf(&b, "  daemon cores busy in saturation        %12.2f %15.2f\n", gmp1.details()["daemon.cpu_util"], base.details()["daemon.cpu_util"])
		fmt.Fprintf(&b, "  operator time per input element (ns)   %12.0f %15.0f\n", o1.busyMS()*1e6/float64(gmp1.s.wr.elements), o2.busyMS()*1e6/float64(base.s.wr.elements))
		for _, c := range opLayers {
			if o2.in[c] > 0 {
				fmt.Fprintf(&b, "    op %-8s c(v) (ns)                 %12.0f %15.0f\n", c, o1.costNS(c), o2.costNS(c))
			}
		}
	}
	lt.Text = b.String()
	return lt
}

func tracedLeg(o options, w *workload) (benchResult, error) {
	nproc := runtime.NumCPU()
	base, err := runTCP(o, w, nproc, false)
	if err != nil {
		return benchResult{}, fmt.Errorf("untraced run: %w", err)
	}
	traced, err := runTCP(o, w, nproc, true)
	if err != nil {
		return benchResult{}, fmt.Errorf("traced run: %w", err)
	}
	inp, err := runInProcess(newPlan(w, phasesFor(o.seconds), false), o.seed)
	if err != nil {
		return benchResult{}, fmt.Errorf("in-process leg: %w", err)
	}
	var gmp1 *tcpRun
	if nproc > 1 {
		if gmp1, err = runTCP(o, w, 1, false); err != nil {
			return benchResult{}, fmt.Errorf("GOMAXPROCS=1 run: %w", err)
		}
	}
	lt := buildLayerTable(base, traced, inp, gmp1)
	m := perLayer(base, traced, inp, gmp1, lt)

	runs := []*tcpRun{base, traced}
	if gmp1 != nil {
		runs = append(runs, gmp1)
	}
	res := benchResult{Correct: true, Metrics: m}
	for _, r := range runs {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		res.Correct = res.Correct && r.failed() == 0 && r.check.Expected > 0
	}
	m["check.fail_frac"] = metricVal{float64(res.Failed) / float64(res.Attempted), "ratio"}

	dir, err := outDir(o, w)
	if err != nil {
		return benchResult{}, err
	}
	rec := traced.record(o, w, m)
	out := struct {
		runRecord
		Layers     layerTable         `json:"layer_table"`
		Untraced   map[string]float64 `json:"untraced_end_to_end"`
		Traced     map[string]float64 `json:"traced_end_to_end"`
		GOMAXPROC1 map[string]float64 `json:"gomaxprocs1_end_to_end,omitempty"`
		InProcess  map[string]float64 `json:"in_process"`
	}{runRecord: rec, Layers: lt, Untraced: base.figures(), Traced: traced.figures(), InProcess: map[string]float64{
		"latency_p50_ms": inp.latP50, "latency_p99_ms": inp.latP99, "generator_p50_ms": inp.genP50,
		"throughput_eps": inp.throughput, "push_ns_per_el": inp.pushNSPerEl, "register_us": inp.registerUS,
	}}
	if gmp1 != nil {
		out.GOMAXPROC1 = gmp1.figures()
	}
	if err := writeJSON(filepath.Join(dir, "trace.json"), out); err != nil {
		return benchResult{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(lt.Text), 0o644); err != nil {
		return benchResult{}, err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), append(traced.s.frameSpans(), traced.s.rd.spans...)); err != nil {
		return benchResult{}, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench %s seed %d traced (records in %s):\n%s", w.name, o.seed, dir, lt.Text)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func perLayer(base, traced *tcpRun, inp inprocStats, gmp1 *tcpRun, lt layerTable) map[string]metricVal {
	rd, wr := &traced.s.rd, &traced.s.wr
	final := traced.finalScrape()
	ops := sumOps(final)
	v := map[string]float64{
		"hmtsd.pushb_rtt_us_p50":     float64(rd.pushRTT.quantile(0.5)) / 1e3,
		"hmtsd.pushb_rtt_us_p99":     float64(rd.pushRTT.quantile(0.99)) / 1e3,
		"hmtsd.result_lines":         float64(rd.resultLines),
		"hmtsd.result_mb":            float64(rd.resultBytes) / (1 << 20),
		"hmtsd.result_burst_gap_ms":  ms(rd.burstGap.quantile(0.5)),
		"hmtsd.egress_ms_p50":        lt.E2EP50 - inp.latP50,
		"ingest.push_ns_per_el":      inp.pushNSPerEl,
		"op.in":                      float64(ops.allIn),
		"op.out":                     float64(ops.allOut),
		"op.busy_ms":                 ops.busyMS(),
		"sched.executors":            float64(inp.executors),
		"sched.query_add_ms":         median(rd.mutRTT[kAdd]),
		"sched.query_drop_ms":        median(rd.mutRTT[kDrop]),
		"sched.rebalance_ms":         median(rd.mutRTT[kRebalance]),
		"sched.post_mutation_p99_ms": ms(rd.post.quantile(0.99)),
		"query.register_us":          inp.registerUS,
		"daemon.cpu_util":            traced.details()["daemon.cpu_util"],
		"client.cpu_util":            traced.details()["client.cpu_util"],
		"gen.late_ms_max":            ms(wr.genLateMax),
		"engine.latency_p50_ms":      inp.latP50,
		"engine.latency_p99_ms":      inp.latP99,
		"engine.throughput_eps":      inp.throughput,
		"layer.unattributed_frac":    lt.UnattributedFrac,
	}
	for _, c := range opLayers {
		v["op."+c+".cost_ns"] = ops.costNS(c)
	}
	for _, in := range final.ingest {
		v["ingest.accepted"] += float64(in.accepted)
		v["ingest.dropped"] += float64(in.dropped)
		v["ingest.backlog_max"] = math.Max(v["ingest.backlog_max"], float64(in.maxLen))
	}
	var lags, scrapeUS []float64
	for _, sc := range rd.scrapes {
		scrapeUS = append(scrapeUS, float64(sc.rtt)/1e3)
		for _, in := range sc.snap.ingest {
			lags = append(lags, float64(in.lagNS)/1e6)
		}
	}
	v["ingest.lag_ms_p99"] = quantileOf(lags, 0.99)
	v["metrics.scrape_us"] = median(scrapeUS)
	for _, q := range final.queues {
		v["queue.enqueued"] += float64(q.enq)
		v["queue.max_len"] = math.Max(v["queue.max_len"], float64(q.maxLen))
		v["queue.full_blocks"] += float64(q.fullBlocks)
		v["queue.blocked_ms"] += float64(q.blockedMS)
		v["queue.overshoot"] += float64(q.overshoot)
	}
	for _, sh := range final.shards {
		v["shard.skew"] = math.Max(v["shard.skew"], sh.skew)
		for _, n := range sh.in {
			v["shard.replica_in"] += float64(n)
		}
	}
	for _, q := range final.queries {
		v["query.shared_ops"] += float64(q.shared)
		v["query.private_ops"] += float64(q.private)
	}
	bw, tw := base.wallClock(), traced.wallClock()
	for k, x := range bw {
		v[k] = x
	}
	v["trace.throughput_ratio"] = tw["e2e.throughput_eps"] / bw["e2e.throughput_eps"]
	v["trace.latency_p50_ratio"] = tw["e2e.latency_p50_ms"] / bw["e2e.latency_p50_ms"]
	v["trace.latency_p99_ratio"] = tw["e2e.latency_p99_ms"] / bw["e2e.latency_p99_ms"]
	if gmp1 != nil {
		g1 := gmp1.figures()
		v["baseline.gmp1_throughput_eps"] = g1["e2e.throughput_eps"]
		v["baseline.gmp1_cpu_ns_per_el"] = g1["cpu_ns_per_el"]
		v["baseline.gmp2_speedup"] = bw["e2e.throughput_eps"] / g1["e2e.throughput_eps"]
	}
	m := make(map[string]metricVal, len(perLayerSpec))
	for _, sp := range perLayerSpec {
		m[sp.name] = metricVal{v[sp.name], sp.unit}
	}
	return m
}

// figures is every end-to-end figure of a run, gated or not.
func (t *tcpRun) figures() map[string]float64 {
	f := t.wallClock()
	for k, m := range t.endToEnd() {
		f[k] = m.Value
	}
	return f
}

// quantileOf is the nearest-rank q-quantile of xs (0 if empty).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
