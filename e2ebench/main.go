// Command e2ebench is the hmts end-to-end benchmark. Each run launches a
// freshly built cmd/hmtsd on loopback, drives it over one connection with
// seeded PUSHB frames (an open-loop latency phase, then an unpaced
// saturation phase), reads the RESULT lines back, checks them against a
// reference it computes itself, and prints the end-to-end metrics as the
// last line of standard output. With -trace 1 it instead runs the traced
// leg and prints the per-layer metrics.
//
// Run it through run.sh from the root of a checkout, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload agg_results --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --compare old.json new.json
//
// Run records (host stamp, every measured value, the checker's verdict
// and the daemon's stderr), spans and layer tables go to .bench_out/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many fresh daemons a run sets up; setup_s is their
// median. The last one carries the run.
const setupReps = 11

type options struct {
	root, daemon string
	seed         uint64
	seconds      int
}

func main() {
	var o options
	var workload, compare string
	var trace int
	flag.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json; records go to .bench_out/)")
	flag.StringVar(&o.daemon, "daemon", "", "hmtsd binary built from the checkout")
	flag.StringVar(&workload, "workload", "", "agg_results, sharded_agg or query_churn")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: run the traced leg and print per-layer metrics")
	flag.StringVar(&compare, "compare", "", "compare this run record with the one named by the first argument")
	flag.Parse()
	if compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: e2ebench --compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareRecords(filepath.Join(o.root, "BENCHMARK.json"), compare, flag.Arg(0)))
	}
	w, ok := workloads[workload]
	if !ok || o.daemon == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (agg_results|sharded_agg|query_churn), --daemon, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var out benchResult
	var err error
	if trace == 1 {
		out, err = tracedLeg(o, w)
	} else {
		out, err = timedLeg(o, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", workload, err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type benchResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runRecord is what one TCP run leaves in .bench_out/.
type runRecord struct {
	Workload string               `json:"workload"`
	Traced   bool                 `json:"traced"`
	Seconds  int                  `json:"seconds"`
	Host     hostStamp            `json:"host"`
	Metrics  map[string]metricVal `json:"metrics"`
	Details  map[string]float64   `json:"details"`
	Check    checkReport          `json:"check"`
	// WindowP99MS and SatIntervalEPS show the two phases through the run:
	// the latency p99 of each measured window and the saturation rate of
	// each interval, whose medians the metrics report.
	WindowP99MS    []float64 `json:"window_p99_ms"`
	SatIntervalEPS []float64 `json:"saturation_interval_eps"`
	Attempted      int64     `json:"attempted"`
	Failed         int64     `json:"failed"`
	Errors         []string  `json:"errors,omitempty"`
	DaemonStderr   string    `json:"daemon_stderr"`
}

// tcpRun is one daemon session's raw measurements.
type tcpRun struct {
	plan      *runPlan
	s         *session
	gmp       int
	setupWall []float64 // seconds, exec -> OK running
	setupCPU  []float64 // seconds the daemon's threads ran until OK running
	setupCmds int
	hwm       int64
	daemonCPU time.Duration // whole daemon lifetime
	check     checkReport
	stderr    string
	stealFrac float64 // host CPU time stolen by the hypervisor during the run
}

// setupDaemon starts a daemon and registers the workload up to START,
// pipelining the commands. It returns the wall time from exec to
// OK running and the CPU time the daemon's threads ran until then.
func setupDaemon(bin string, gmp int, w *workload) (*daemon, net.Conn, *bufio.Reader, time.Duration, time.Duration, error) {
	d, err := startDaemon(bin, gmp)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	fail := func(err error) (*daemon, net.Conn, *bufio.Reader, time.Duration, time.Duration, error) {
		if kerr := d.kill(); kerr != nil {
			err = fmt.Errorf("%w; %v", err, kerr)
		}
		return nil, nil, nil, 0, 0, err
	}
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return fail(fmt.Errorf("dial hmtsd: %w", err))
	}
	r := bufio.NewReaderSize(conn, 256<<10)
	if _, err := readReply(r); err != nil {
		conn.Close()
		return fail(fmt.Errorf("greeting: %w", err))
	}
	cmds := w.setupCommands()
	if _, err := conn.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		conn.Close()
		return fail(fmt.Errorf("setup: %w", err))
	}
	for _, c := range cmds {
		reply, err := readReply(r)
		if err == nil && !strings.HasPrefix(reply, "OK") {
			err = fmt.Errorf("%s", reply)
		}
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("setup %q: %w", c, err))
		}
	}
	wall := time.Since(d.started)
	cpu, err := procRuntime(d.pid())
	if err != nil {
		conn.Close()
		return fail(fmt.Errorf("setup CPU: %w", err))
	}
	return d, conn, r, wall, cpu, nil
}

func runTCP(o options, w *workload, gmp int, traced bool) (*tcpRun, error) {
	t := &tcpRun{plan: newPlan(w, phasesFor(o.seconds), traced), gmp: gmp, setupCmds: len(w.setupCommands())}
	var d *daemon
	var conn net.Conn
	var r *bufio.Reader
	for k := 0; k < setupReps; k++ {
		if d != nil {
			conn.Close()
			if err := d.kill(); err != nil {
				return nil, err
			}
		}
		var wall, cpu time.Duration
		var err error
		d, conn, r, wall, cpu, err = setupDaemon(o.daemon, gmp, w)
		if err != nil {
			return nil, err
		}
		t.setupWall = append(t.setupWall, wall.Seconds())
		t.setupCPU = append(t.setupCPU, cpu.Seconds())
	}
	t.s = newSession(t.plan, o.seed, conn, r)
	limit := 3*time.Duration(o.seconds)*time.Second + 60*time.Second
	steal0, total0 := hostCPU()
	runErr := t.s.run(d.pid(), limit)
	steal1, total1 := hostCPU()
	if total1 > total0 {
		t.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	t.hwm, _ = procHWM(d.pid())
	t.daemonCPU, _ = procCPU(d.pid())
	conn.Close()
	killErr := d.kill()
	t.stderr = d.stderr.String()
	if runErr != nil {
		return nil, fmt.Errorf("%w\nhmtsd stderr:\n%s", runErr, t.stderr)
	}
	if killErr != nil {
		return nil, killErr
	}
	t.s.rd.decodeValues()
	t.check = check(t.plan, o.seed, t.s.wr.elements, t.s.rd.results)
	return t, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// satSeconds is the saturation phase: first frame written to the last
// RESULT/DONE read.
func (t *tcpRun) satSeconds() float64 { return float64(t.s.rd.end-t.s.wr.satStart) / 1e9 }

// intervalThroughput is the median over satBin intervals of the
// saturation phase of the elements hmtsd acknowledged, skipping the first
// (ramp) and the last (partial) interval.
func (t *tcpRun) intervalThroughput() float64 { return median(t.intervalRates()) }

func (t *tcpRun) intervalRates() []float64 {
	bins := t.s.rd.satAcked
	n := int(t.plan.ph.saturation / satBin)
	var rates []float64
	for i := 1; i < n-1 && i < len(bins); i++ {
		rates = append(rates, float64(bins[i])/satBin.Seconds())
	}
	return rates
}

// windowP99 is the median of the latency p99s of latencyWindows equal
// slices of the measured window.
func (t *tcpRun) windowP99() float64 { return median(t.windowP99s()) }

func (t *tcpRun) windowP99s() []float64 {
	var p99s []float64
	for i := range t.s.rd.latWin {
		p99s = append(p99s, ms(t.s.rd.latWin[i].quantile(0.99)))
	}
	return p99s
}

func (t *tcpRun) mutations() []float64 {
	var all []float64
	for _, v := range t.s.rd.mutRTT {
		all = append(all, v...)
	}
	return all
}

// endToEnd computes the end-to-end metrics: the daemon's CPU per element
// at saturation and at the paced rate, its peak memory and its set-up CPU.
// They are gated because they hold still while the host's steal moves
// wall-clock figures by up to 2x; see wallClock for the others.
func (t *tcpRun) endToEnd() map[string]metricVal {
	wr, rd := &t.s.wr, &t.s.rd
	return map[string]metricVal{
		"cpu_ns_per_el":       {float64((rd.daemonCPU1 - wr.daemonCPU0).Nanoseconds()) / float64(wr.satElements), "ns"},
		"paced_cpu_ns_per_el": {float64((wr.pacedCPU[1] - wr.pacedCPU[0]).Nanoseconds()) / float64(wr.pacedElem[1]-wr.pacedElem[0]), "ns"},
		"rss_peak_mb":         {float64(t.hwm) / (1 << 20), "MB"},
		"setup_s":             {median(t.setupCPU), "s"},
	}
}

// wallClock computes the end-to-end figures a user sees in wall-clock
// time. Every run records them; the traced run reports them ungated.
func (t *tcpRun) wallClock() map[string]float64 {
	return map[string]float64{
		"e2e.throughput_eps": t.intervalThroughput(),
		"e2e.latency_p50_ms": ms(t.s.rd.lat.quantile(0.50)),
		"e2e.latency_p99_ms": t.windowP99(),
		"e2e.mutate_p50_ms":  median(t.mutations()),
		"e2e.setup_wall_s":   median(t.setupWall),
	}
}

func (t *tcpRun) attempted() int64 {
	return t.s.wr.elements + int64(t.s.wr.commands+t.setupCmds)
}

// failed counts ingress drops, checker misses/extras/wrong values, ERR
// replies and lines that could not be attributed.
func (t *tcpRun) failed() int64 {
	rd := &t.s.rd
	return int64(rd.dropped) + int64(t.check.failures()) + int64(len(rd.errs)+rd.unknownIDs+rd.badLines)
}

// details are the wall-clock figures and harness-health values every run
// records.
func (t *tcpRun) details() map[string]float64 {
	wr, rd := &t.s.wr, &t.s.rd
	sat := t.satSeconds()
	d := t.wallClock()
	for k, v := range map[string]float64{
		"host.steal_frac":      t.stealFrac,
		"latency_samples":      float64(rd.lat.n),
		"latency_p99_whole_ms": ms(rd.lat.quantile(0.99)),
		"latency_p90_ms":       ms(rd.lat.quantile(0.90)),
		"latency_p95_ms":       ms(rd.lat.quantile(0.95)),
		"throughput_whole_eps": float64(wr.satElements) / sat,
		"latency_max_ms":       ms(rd.lat.max),
		"mutations":            float64(len(t.mutations())),
		"elements":             float64(wr.elements),
		"sat_elements":         float64(wr.satElements),
		"daemon.cpu_util":      (rd.daemonCPU1 - wr.daemonCPU0).Seconds() / sat,
		"client.cpu_util":      (rd.clientCPU1 - wr.clientCPU0).Seconds() / sat,
		"gen.late_ms_max":      ms(wr.genLateMax),
		"gen.delay_ms_p50":     ms(wr.genDelay.quantile(0.5)),
		"hmtsd.result_lines":   float64(rd.resultLines),
		"ingest.dropped":       float64(rd.dropped),
		"err_replies":          float64(len(rd.errs)),
	} {
		d[k] = v
	}
	return d
}

func (t *tcpRun) record(o options, w *workload, metrics map[string]metricVal) runRecord {
	return runRecord{
		Workload: w.name, Traced: t.plan.traced, Seconds: o.seconds,
		Host:    newHostStamp(o.root, t.gmp, o.seed),
		Metrics: metrics, Details: t.details(), Check: t.check,
		Attempted: t.attempted(), Failed: t.failed(), Errors: t.s.rd.errs,
		DaemonStderr: t.stderr,
		WindowP99MS:  t.windowP99s(), SatIntervalEPS: t.intervalRates(),
	}
}

// outDir is where a run's records go: .bench_out/<workload>/seed<n>.
func outDir(o options, w *workload) (string, error) {
	dir := filepath.Join(o.root, ".bench_out", w.name, fmt.Sprintf("seed%d", o.seed))
	return dir, os.MkdirAll(dir, 0o755)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func timedLeg(o options, w *workload) (benchResult, error) {
	t, err := runTCP(o, w, runtime.NumCPU(), false)
	if err != nil {
		return benchResult{}, err
	}
	m := t.endToEnd()
	rec := t.record(o, w, m)
	dir, err := outDir(o, w)
	if err == nil {
		err = writeJSON(filepath.Join(dir, "record.json"), rec)
	}
	if err != nil {
		return benchResult{}, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench %s seed %d: %d latency samples, client %.2f cores, generator late by at most %.2f ms, host steal %.0f%%, check %+v\n",
		w.name, o.seed, t.s.rd.lat.n, rec.Details["client.cpu_util"], rec.Details["gen.late_ms_max"], 100*t.stealFrac, t.check)
	return benchResult{
		Correct:   rec.Failed == 0 && t.check.Expected > 0 && t.s.rd.lat.n > 0,
		Attempted: rec.Attempted, Failed: rec.Failed, Metrics: m,
	}, nil
}
