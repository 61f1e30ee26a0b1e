package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var t0 = time.Now()

// mono is the run clock: nanoseconds on the monotonic clock.
func mono() int64 { return int64(time.Since(t0)) }

func sleepUntil(at int64) {
	if d := at - mono(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// result is one RESULT line. While the run is on, bits holds where the
// value's text sits in the reader's arena (offset<<8 | length); parsing is
// deferred to decodeValues after the timed phases, which keeps float
// parsing off the reader's hot path.
type result struct {
	ts, key int64
	bits    uint64 // after decodeValues: math.Float64bits of the value
}

func (r result) val() float64 { return math.Float64frombits(r.bits) }

func (r result) String() string { return fmt.Sprintf("{ts %d key %d val %v}", r.ts, r.key, r.val()) }

// pending is a command whose reply the reader has yet to see. hmtsd
// answers commands in order, so a FIFO pairs replies with commands.
type pending struct {
	kind  cmdKind
	paced bool
	sent  int64
	frame int32
}

// pendingDepth bounds the replies in flight. Saturation keeps at most the
// frames that fit in the socket buffers and hmtsd's ingress outstanding
// (a few hundred); a full FIFO only throttles the writer.
const pendingDepth = 1 << 16

// maxTracedFrames caps the per-frame span arrays of a traced run.
const maxTracedFrames = 1 << 18

// span is one client-side trace span. Spans of one frame share Trace.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// scrape is one parsed METRICS reply.
type scrape struct {
	rtt  int64
	snap *snapshot
}

// session drives one hmtsd connection through a run: one writer goroutine
// sends frames and commands, one reader goroutine consumes replies and
// results.
type session struct {
	plan  *runPlan
	seed  uint64
	conn  net.Conn
	r     *bufio.Reader
	epoch int64 // paced phase start: element i is due at epoch + i*spacing

	pend    chan pending
	abort   chan struct{}
	failMu  sync.Mutex
	failErr error
	drained chan struct{}

	// Traced frame bookkeeping: writer-owned frameStart/writeStart/writeEnd
	// published through nFrames; reader-owned ackAt/firstRes/lastRes.
	frameStart, writeStart, writeEnd []int64
	nFrames                          atomic.Int64
	ackAt, firstRes, lastRes         []int64

	wr writerStats
	rd readerStats
}

// writerStats is owned by the writer goroutine until it returns.
type writerStats struct {
	elements     int64
	commands     int
	satFirstElem int64
	satElements  int64
	satStart     int64
	daemonCPU0   time.Duration
	clientCPU0   time.Duration
	genLateMax   int64
	// Daemon CPU and elements sent at the start and end of the measured
	// latency window.
	pacedCPU  [2]time.Duration
	pacedElem [2]int64
	genDelay  hist // element due -> its frame's write start, measured window
}

// readerStats is owned by the reader goroutine until it returns.
type readerStats struct {
	results    [][]result
	arena      []byte // RESULT value texts, see result
	unknownIDs int
	lat, post  hist
	// latWin splits the measured window into latencyWindows equal parts
	// of due time; satAcked bins acknowledged saturation-phase elements by
	// satBin of ack time.
	latWin      []hist
	satAcked    []uint64
	pushRTT     hist
	burstGap    hist
	lastBurst   int64
	lastResult  int64
	mutRTT      map[cmdKind][]float64 // ms
	accepted    uint64
	dropped     uint64
	errs        []string
	resultLines uint64
	resultBytes uint64
	closed      bool
	dones       map[int]bool
	end         int64 // last RESULT/DONE of the saturation drain
	daemonCPU1  time.Duration
	clientCPU1  time.Duration
	scrapes     []scrape
	info        []string
	spans       []span
	badLines    int
}

func newSession(p *runPlan, seed uint64, conn net.Conn, r *bufio.Reader) *session {
	s := &session{
		plan: p, seed: seed, conn: conn, r: r,
		pend:    make(chan pending, pendingDepth),
		abort:   make(chan struct{}),
		drained: make(chan struct{}),
	}
	s.rd.results = make([][]result, len(p.queries))
	expect := int(p.w.rateHz) * int((p.ph.warmup+p.ph.latency+p.ph.tail+p.ph.saturation)/time.Second+1)
	for id := 0; id < p.standing; id++ {
		s.rd.results[id] = make([]result, 0, expect/p.standing)
	}
	s.rd.mutRTT = make(map[cmdKind][]float64)
	s.rd.latWin = make([]hist, latencyWindows)
	s.rd.satAcked = make([]uint64, int(p.ph.saturation/satBin)+1)
	s.rd.dones = make(map[int]bool)
	if p.traced {
		s.frameStart = make([]int64, maxTracedFrames)
		s.writeStart = make([]int64, maxTracedFrames)
		s.writeEnd = make([]int64, maxTracedFrames)
		s.ackAt = make([]int64, maxTracedFrames)
		s.firstRes = make([]int64, maxTracedFrames)
		s.lastRes = make([]int64, maxTracedFrames)
	}
	return s
}

func (s *session) fail(err error) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.failErr == nil {
		s.failErr = err
		close(s.abort)
		s.conn.Close()
	}
}

func (s *session) err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// run drives the paced and saturation phases and returns once the daemon
// has answered QUIT. pid is the daemon's, for its CPU counters.
func (s *session) run(pid int, limit time.Duration) error {
	s.epoch = mono() + int64(20*time.Millisecond)
	watchdog := time.AfterFunc(limit, func() { s.fail(fmt.Errorf("run exceeded %v", limit)) })
	defer watchdog.Stop()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := s.write(pid); err != nil {
			s.fail(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := s.read(pid); err != nil {
			s.fail(err)
		}
	}()
	wg.Wait()
	return s.err()
}

// send queues the reply expectation, then writes the bytes.
func (s *session) send(p pending, b []byte) error {
	select {
	case s.pend <- p:
	case <-s.abort:
		return errAborted
	}
	if p.kind != kFrame {
		s.wr.commands++
	}
	if _, err := s.conn.Write(b); err != nil {
		return fmt.Errorf("write %v: %w", p.kind, err)
	}
	return nil
}

var errAborted = errors.New("aborted")

func (s *session) sendEvent(ev event, paced bool) error {
	var line string
	switch ev.kind {
	case kAdd:
		line = "QUERY ADD " + s.plan.queries[ev.qid].text
	case kDrop:
		line = "QUERY DROP " + strconv.Itoa(ev.qid)
	case kRebalance:
		line = "REBALANCE"
	}
	return s.send(pending{kind: ev.kind, paced: paced, sent: mono()}, []byte(line+"\n"))
}

func (s *session) sendFrame(enc *frameEncoder, in *input, n int64, paced bool) error {
	f := s.nFrames.Load()
	traced := s.plan.traced && f < maxTracedFrames
	if traced {
		s.frameStart[f] = in.i
	}
	b := enc.encode(in, int(n))
	start := mono()
	if traced {
		s.writeStart[f] = start
	}
	s.nFrames.Store(f + 1)
	if err := s.send(pending{kind: kFrame, paced: paced, sent: start, frame: int32(f)}, b); err != nil {
		return err
	}
	s.wr.elements += n
	if traced {
		s.writeEnd[f] = mono()
	}
	return nil
}

func (s *session) write(pid int) error {
	p := s.plan
	enc := &frameEncoder{source: "ext", buf: make([]byte, 0, 64<<10)}
	in := newInput(s.seed, p.spacing)
	period := int64(framePeriod)
	nextScrape := s.epoch + int64(time.Second)
	scrape := func(now int64) error {
		if !p.traced || now < nextScrape {
			return nil
		}
		nextScrape += int64(time.Second)
		return s.send(pending{kind: kMetrics, sent: now}, []byte("METRICS\n"))
	}
	ev := 0
	for tick := int64(1); in.i < p.pacedN || ev < len(p.events); tick++ {
		at := s.epoch + tick*period
		sleepUntil(at)
		now := mono()
		if late := now - at; late > s.wr.genLateMax && in.i < p.pacedN {
			s.wr.genLateMax = late
		}
		due := (now-s.epoch)/p.spacing + 1
		if due > p.pacedN {
			due = p.pacedN
		}
		if n := due - in.i; n > 0 {
			first := in.i
			if err := s.sendFrame(enc, in, n, true); err != nil {
				return err
			}
			// Per-element generator delay: due time to the frame write.
			for i := max(first, p.warmN); i < due && i < p.warmN+p.measN; i++ {
				s.wr.genDelay.record(now - (s.epoch + i*p.spacing))
			}
		}
		for k, mark := range [2]int64{p.warmN, p.warmN + p.measN} {
			if s.wr.pacedElem[k] == 0 && in.i >= mark {
				s.wr.pacedCPU[k], _ = procCPU(pid)
				s.wr.pacedElem[k] = in.i
			}
		}
		for ev < len(p.events) && s.epoch+int64(p.events[ev].at) <= now {
			if err := s.sendEvent(p.events[ev], true); err != nil {
				return err
			}
			ev++
		}
		if err := scrape(now); err != nil {
			return err
		}
	}

	// Saturation: unpaced; POLICY block and TCP flow control close the loop.
	s.wr.daemonCPU0, _ = procCPU(pid)
	s.wr.clientCPU0 = selfCPU()
	s.wr.satFirstElem = in.i
	s.wr.satStart = mono()
	deadline := s.wr.satStart + int64(p.ph.saturation)
	for now := s.wr.satStart; now < deadline; now = mono() {
		if err := s.sendFrame(enc, in, saturationRecs, false); err != nil {
			return err
		}
		if err := scrape(now); err != nil {
			return err
		}
	}
	s.wr.satElements = in.i - s.wr.satFirstElem
	if err := s.send(pending{kind: kClose, sent: mono()}, []byte("CLOSE ext\n")); err != nil {
		return err
	}
	select {
	case <-s.drained:
	case <-s.abort:
		return errAborted
	}
	if err := s.send(pending{kind: kMetrics, sent: mono()}, []byte("METRICS\n")); err != nil {
		return err
	}
	return s.send(pending{kind: kQuit, sent: mono()}, []byte("QUIT\n"))
}

func (s *session) read(pid int) error {
	p := s.plan
	rd := &s.rd
	measLo, measHi := p.warmN, p.warmN+p.measN
	var now int64
	for {
		buffered := s.r.Buffered()
		line, err := s.r.ReadSlice('\n')
		if err != nil {
			select {
			case <-s.abort:
				return nil
			default:
			}
			return fmt.Errorf("read: %w", err)
		}
		// Lines already buffered arrived with the read that brought them;
		// take the clock only when this line needed a new read.
		if len(line) > buffered {
			now = mono()
		}
		switch {
		case hasPrefix(line, "RESULT "):
			id, res, val, ok := parseResult(line)
			if !ok || len(val) > 255 {
				rd.badLines++
				continue
			}
			rd.resultLines++
			rd.resultBytes += uint64(len(line))
			if id < 0 || id >= len(rd.results) {
				rd.unknownIDs++
				continue
			}
			res.bits = uint64(len(rd.arena))<<8 | uint64(len(val))
			rd.arena = append(rd.arena, val...)
			rd.results[id] = append(rd.results[id], res)
			idx := (res.ts - tsBase) / p.spacing
			if idx >= measLo && idx < measHi {
				lat := now - (s.epoch + idx*p.spacing)
				rd.lat.record(lat)
				rd.latWin[(idx-measLo)*latencyWindows/p.measN].record(lat)
				if p.postMut != nil && p.postMut[(idx*p.spacing)/int64(time.Millisecond)] {
					rd.post.record(lat)
				}
				if gap := now - rd.lastResult; gap > int64(500*time.Microsecond) {
					if rd.lastBurst > 0 {
						rd.burstGap.record(now - rd.lastBurst)
					}
					rd.lastBurst = now
				}
			}
			rd.lastResult = now
			if p.traced {
				s.traceResult(idx, now)
			}
		case hasPrefix(line, "DONE "):
			id, _, ok := parseInt(trimEOL(line[len("DONE "):]))
			if !ok {
				rd.badLines++
				continue
			}
			rd.dones[int(id)] = true
			if rd.closed && s.allDone() && rd.end == 0 {
				s.finishSaturation(pid, now)
			}
		case hasPrefix(line, "INFO "):
			rd.info = append(rd.info, string(trimEOL(line[len("INFO "):])))
		case hasPrefix(line, "OK") || hasPrefix(line, "ERR"):
			var pd pending
			select {
			case pd = <-s.pend:
			default:
				return fmt.Errorf("reply without a command: %q", trimEOL(line))
			}
			if hasPrefix(line, "ERR") {
				rd.errs = append(rd.errs, fmt.Sprintf("%v: %s", pd.kind, trimEOL(line)))
				if pd.kind == kQuit || pd.kind == kClose {
					return fmt.Errorf("%v failed: %s", pd.kind, trimEOL(line))
				}
				continue
			}
			if done, err := s.reply(pd, line, now, pid); done || err != nil {
				return err
			}
		default:
			rd.badLines++
		}
	}
}

// reply handles one OK line; done reports the end of the session.
func (s *session) reply(pd pending, line []byte, now int64, pid int) (done bool, err error) {
	rd := &s.rd
	rtt := now - pd.sent
	switch pd.kind {
	case kFrame:
		rest := trimEOL(line[len("OK "):])
		a, rest, ok1 := parseInt(rest)
		d, _, ok2 := parseInt(rest)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("bad PUSHB reply %q", trimEOL(line))
		}
		rd.accepted += uint64(a)
		rd.dropped += uint64(d)
		if pd.paced {
			rd.pushRTT.record(rtt)
		} else if bin := (now - s.wr.satStart) / int64(satBin); bin < int64(len(rd.satAcked)) {
			rd.satAcked[bin] += uint64(a)
		}
		if s.plan.traced && int(pd.frame) < maxTracedFrames {
			s.ackAt[pd.frame] = now
		}
	case kAdd, kDrop, kRebalance:
		rd.mutRTT[pd.kind] = append(rd.mutRTT[pd.kind], float64(rtt)/1e6)
		s.traceCommand(pd, now)
	case kMetrics:
		snap, err := parseMetrics(rd.info)
		if err != nil {
			return false, err
		}
		rd.scrapes = append(rd.scrapes, scrape{rtt: rtt, snap: snap})
		rd.info = rd.info[:0]
		s.traceCommand(pd, now)
	case kClose:
		rd.closed = true
		if s.allDone() {
			s.finishSaturation(pid, now)
		}
	case kQuit:
		return true, nil
	}
	return false, nil
}

// allDone reports whether every standing query has sent DONE.
func (s *session) allDone() bool {
	for id := 0; id < s.plan.standing; id++ {
		if !s.rd.dones[id] {
			return false
		}
	}
	return true
}

func (s *session) finishSaturation(pid int, now int64) {
	s.rd.end = now
	s.rd.daemonCPU1, _ = procCPU(pid)
	s.rd.clientCPU1 = selfCPU()
	close(s.drained)
}

func (s *session) traceResult(idx, now int64) {
	n := min(s.nFrames.Load(), maxTracedFrames)
	lo, hi := int64(0), n
	for lo < hi { // last frame whose first element is <= idx
		mid := (lo + hi) / 2
		if s.frameStart[mid] <= idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if f := lo - 1; f >= 0 {
		if s.firstRes[f] == 0 {
			s.firstRes[f] = now
		}
		s.lastRes[f] = now
	}
}

// mutation and scrape span ids live above the frame id space.
const commandSpanBase = int64(1) << 40

func (s *session) traceCommand(pd pending, now int64) {
	if !s.plan.traced {
		return
	}
	id := commandSpanBase + int64(len(s.rd.spans))
	name := "mutation." + pd.kind.String()
	if pd.kind == kMetrics {
		name = "metrics.scrape"
	}
	s.rd.spans = append(s.rd.spans, span{Trace: id, ID: id, Name: name, Start: pd.sent, End: now})
}

// frameSpans assembles the per-frame spans of a traced run: a root
// "frame" span from write to its last RESULT, with write, ack and results
// children sharing the frame's trace id.
func (s *session) frameSpans() []span {
	n := min(s.nFrames.Load(), maxTracedFrames)
	out := make([]span, 0, 4*n)
	for f := int64(0); f < n; f++ {
		root := 4*f + 1
		end := max(s.ackAt[f], s.lastRes[f])
		out = append(out,
			span{Trace: f, ID: root, Name: "frame", Start: s.writeStart[f], End: end},
			span{Trace: f, ID: root + 1, Parent: root, Name: "frame.write", Start: s.writeStart[f], End: s.writeEnd[f]},
			span{Trace: f, ID: root + 2, Parent: root, Name: "frame.ack", Start: s.writeEnd[f], End: s.ackAt[f]})
		if s.firstRes[f] != 0 {
			out = append(out, span{Trace: f, ID: root + 3, Parent: root, Name: "frame.results", Start: s.writeStart[f], End: s.lastRes[f]})
		}
	}
	return out
}

func hasPrefix(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

func trimEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// parseInt parses a decimal integer up to the next space and returns the
// bytes after that space.
func parseInt(b []byte) (v int64, rest []byte, ok bool) {
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if i == start || (i < len(b) && b[i] != ' ') {
		return 0, nil, false
	}
	if neg {
		v = -v
	}
	if i < len(b) {
		i++
	}
	return v, b[i:], true
}

// parseResult splits "RESULT <id> <ts> <key> <val>" without allocating;
// val aliases line.
func parseResult(line []byte) (id int, r result, val []byte, ok bool) {
	b := trimEOL(line[len("RESULT "):])
	id64, b, ok1 := parseInt(b)
	ts, b, ok2 := parseInt(b)
	key, b, ok3 := parseInt(b)
	if !ok1 || !ok2 || !ok3 || len(b) == 0 {
		return 0, result{}, nil, false
	}
	return int(id64), result{ts: ts, key: key}, b, true
}

// decodeValues parses every result's value text from the arena, in place.
// A value that does not parse is counted and becomes NaN, which the
// checker then reports as wrong.
func (rd *readerStats) decodeValues() {
	for _, rs := range rd.results {
		for i := range rs {
			off, n := rs[i].bits>>8, rs[i].bits&0xff
			v, err := strconv.ParseFloat(string(rd.arena[off:off+n]), 64)
			if err != nil {
				rd.badLines++
				v = math.NaN()
			}
			rs[i].bits = math.Float64bits(v)
		}
	}
	rd.arena = nil
}

// readReply reads up to the next OK or ERR line; set-up uses it before
// any RESULT line can arrive.
func readReply(r *bufio.Reader) (string, error) {
	for {
		b, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		b = strings.TrimSpace(b)
		if strings.HasPrefix(b, "OK") || strings.HasPrefix(b, "ERR") {
			return b, nil
		}
	}
}
