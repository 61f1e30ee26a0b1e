// Command hmtsd is a minimal DSMS daemon: clients connect over TCP, define
// synthetic sources, register continuous queries in the shared query
// graph, start the engine in any scheduling mode, and receive results as
// they are produced.
//
// Protocol (one command per line, at most 1MB; responses are OK/ERR lines,
// results are pushed asynchronously):
//
//	SOURCE <name> COUNT <n> RATE <hz> [KEYS <lo> <hi>] [SEED <s>] [STAMPED]
//	SOURCE <name> EXTERNAL [POLICY block|drop-newest|drop-oldest] [BUFFER <n>] [RATE <hz>]
//	QUERY <select-statement>            -> OK <id> (before START only)
//	QUERY ADD <select-statement>        -> OK <id> (works before and after
//	                                    START: on a running engine the plan
//	                                    is spliced in live, sharing any
//	                                    common prefix with standing queries)
//	QUERY DROP <id>                     (unregister a standing query; its
//	                                    exclusive operators are pruned and
//	                                    DONE <id> is sent after in-flight
//	                                    results flush)
//	START [gts|ots|di|pure-di|hmts] [fifo|chain|roundrobin|maxqueue] [BOUND <n>]
//	MODE <mode> [strategy]              (switch while running)
//	REBALANCE                           (re-place queues from live stats)
//	PUSH <name> <ts> <key> <val>        (feed an EXTERNAL source; no response
//	                                    on success so pushers can pipeline,
//	                                    ERR on a malformed command; a full
//	                                    buffer blocks or drops per POLICY)
//	PUSHB <name> <count>                (framed batch push: the line is
//	                                    followed by count 24-byte records,
//	                                    little-endian ts int64, key int64,
//	                                    val float64 -> OK <accepted> <dropped>)
//	CLOSE <name>                        (end an EXTERNAL source's stream)
//	METRICS                             (INFO lines incl. ingress counters)
//	WAIT                                (blocks until all queries finish)
//	QUIT
//
// Results: RESULT <id> <ts> <key> <val>, then DONE <id>.
//
// EXTERNAL sources are push-driven: the daemon only delivers what PUSH /
// PUSHB feed in. A zero <ts> is stamped with the arrival time. BOUND caps
// the decoupling queues so ingress backpressure reaches the client (via
// POLICY block and TCP flow control) instead of growing queues without
// limit.
//
// Example session:
//
//	SOURCE s COUNT 100000 RATE 50000 KEYS 0 999 SEED 7
//	QUERY SELECT count(*) FROM s GROUP BY KEY WINDOW 1s
//	START hmts
//	WAIT
//
// Push-driven ingestion:
//
//	SOURCE ext EXTERNAL POLICY drop-newest BUFFER 4096
//	QUERY SELECT * FROM ext WHERE val > 10
//	START gts fifo BOUND 1024
//	PUSH ext 0 42 11.5
//	CLOSE ext
//	WAIT
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux; served only when -pprof is set
	"strconv"
	"strings"
	"sync"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/ql"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof debug endpoints on this address (e.g. 127.0.0.1:6060); disabled when empty")
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			log.Printf("hmtsd pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("hmtsd: pprof listener: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hmtsd: %v", err)
	}
	log.Printf("hmtsd listening on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("hmtsd: accept: %v", err)
			return
		}
		go newSession(conn).serve()
	}
}

// session is one client connection with its own engine.
type session struct {
	conn      net.Conn
	r         *bufio.Reader
	mu        sync.Mutex // guards w
	w         *bufio.Writer
	eng       *hmts.Engine
	sources   map[string]*hmts.Stream
	externals map[string]*hmts.ExternalSource
	started   bool
	queries   int
	qnames    map[int]string // query id -> engine query name, for QUERY DROP
	flushReq  chan struct{}
	closed    chan struct{}

	// Reusable PUSHB scratch, so a sustained batch stream does not allocate
	// per frame.
	frameBuf []byte
	frameEls []hmts.Element
}

func newSession(conn net.Conn) *session {
	return &session{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, 64*1024),
		w:         bufio.NewWriterSize(conn, 64*1024),
		eng:       hmts.New(),
		sources:   make(map[string]*hmts.Stream),
		externals: make(map[string]*hmts.ExternalSource),
		qnames:    make(map[int]string),
		flushReq:  make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
}

// send writes one line and flushes immediately — for command responses and
// end-of-stream markers the client is actively waiting on.
func (s *session) send(format string, args ...any) {
	s.mu.Lock()
	fmt.Fprintf(s.w, format+"\n", args...)
	s.w.Flush()
	s.mu.Unlock()
}

// flusher drains buffered result lines shortly after they are written.
func (s *session) flusher() {
	for {
		select {
		case <-s.closed:
			return
		case <-s.flushReq:
			time.Sleep(2 * time.Millisecond) // let a batch accumulate
			s.mu.Lock()
			s.w.Flush()
			s.mu.Unlock()
		}
	}
}

// maxLine bounds one protocol line. Generously above any legitimate QUERY,
// yet it keeps a garbage (or binary-desynced) client from growing an
// unbounded line buffer.
const maxLine = 1 << 20

var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxLine)

// readLine reads one newline-terminated line of at most maxLine bytes from
// r, without the terminator.
func readLine(r *bufio.Reader) (string, error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(buf)+len(chunk) > maxLine {
			return "", errLineTooLong
		}
		if err == nil {
			if buf == nil {
				return strings.TrimRight(string(chunk), "\r\n"), nil
			}
			buf = append(buf, chunk...)
			return strings.TrimRight(string(buf), "\r\n"), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		buf = append(buf, chunk...)
	}
}

func (s *session) serve() {
	go s.flusher()
	defer func() {
		close(s.closed)
		if s.started {
			s.eng.Stop()
		}
		for _, ext := range s.externals {
			ext.Close()
		}
		s.conn.Close()
	}()
	s.send("OK hmtsd ready")
	for {
		line, err := readLine(s.r)
		if err != nil {
			// A client vanishing mid-session is normal; anything else —
			// an oversized line, a truncated frame — must not end the
			// session silently: tell the client (the ERR may still be
			// deliverable) and the operator log why.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.send("ERR session aborted: %v", err)
				log.Printf("hmtsd: session %s aborted: %v", s.conn.RemoteAddr(), err)
			}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		cmd := strings.ToUpper(strings.Fields(line)[0])
		rest := strings.TrimSpace(line[len(cmd):])
		switch cmd {
		case "QUIT":
			s.send("OK bye")
			return
		case "SOURCE":
			s.cmdSource(rest)
		case "QUERY":
			s.cmdQuery(rest)
		case "START":
			s.cmdStart(rest)
		case "MODE":
			s.cmdMode(rest)
		case "REBALANCE":
			s.cmdRebalance()
		case "METRICS":
			s.cmdMetrics()
		case "PUSH":
			s.cmdPush(rest)
		case "PUSHB":
			if err := s.cmdPushBatch(rest); err != nil {
				// The frame body could not be read: the byte stream is no
				// longer in sync with the line protocol, so the session
				// cannot continue.
				s.send("ERR session aborted: %v", err)
				log.Printf("hmtsd: session %s aborted: %v", s.conn.RemoteAddr(), err)
				return
			}
		case "CLOSE":
			s.cmdClose(rest)
		case "WAIT":
			if !s.started {
				s.send("ERR not started")
				continue
			}
			s.eng.Wait()
			s.send("OK finished")
		default:
			s.send("ERR unknown command %q", cmd)
		}
	}
}

// cmdSource parses: <name> COUNT <n> RATE <hz> [KEYS lo hi] [SEED s] [STAMPED]
func (s *session) cmdSource(rest string) {
	if s.started {
		s.send("ERR engine already started")
		return
	}
	f := strings.Fields(rest)
	if len(f) < 1 {
		s.send("ERR SOURCE needs a name")
		return
	}
	name := strings.ToLower(f[0])
	if _, dup := s.sources[name]; dup {
		s.send("ERR source %q already exists", name)
		return
	}
	if len(f) > 1 && strings.ToUpper(f[1]) == "EXTERNAL" {
		s.cmdSourceExternal(name, f[2:])
		return
	}
	var (
		count        = 0
		rate         = 0.0
		keyLo, keyHi = int64(0), int64(1_000_000)
		seed         = uint64(1)
		stamped      = false
		err          error
	)
	for i := 1; i < len(f); i++ {
		switch strings.ToUpper(f[i]) {
		case "COUNT":
			i++
			count, err = strconv.Atoi(arg(f, i))
		case "RATE":
			i++
			rate, err = strconv.ParseFloat(arg(f, i), 64)
		case "KEYS":
			keyLo, err = strconv.ParseInt(arg(f, i+1), 10, 64)
			if err == nil {
				keyHi, err = strconv.ParseInt(arg(f, i+2), 10, 64)
			}
			i += 2
		case "SEED":
			i++
			seed, err = strconv.ParseUint(arg(f, i), 10, 64)
		case "STAMPED":
			stamped = true
		default:
			err = fmt.Errorf("unknown option %q", f[i])
		}
		if err != nil {
			s.send("ERR %v", err)
			return
		}
	}
	if count <= 0 {
		s.send("ERR SOURCE needs COUNT > 0")
		return
	}
	gen := hmts.UniformKeys(keyLo, keyHi, seed)
	var spec hmts.SourceSpec
	if stamped {
		spec = hmts.GenerateStamped(count, rate, gen)
	} else {
		spec = hmts.Generate(count, rate, gen)
	}
	s.sources[name] = s.eng.Source(name, spec)
	s.send("OK source %s", name)
}

func arg(f []string, i int) string {
	if i < 0 || i >= len(f) {
		return ""
	}
	return f[i]
}

// cmdSourceExternal parses the option tail of:
// SOURCE <name> EXTERNAL [POLICY p] [BUFFER n] [RATE hz]
func (s *session) cmdSourceExternal(name string, f []string) {
	cfg := hmts.ExternalConfig{}
	var err error
	for i := 0; i < len(f); i++ {
		switch strings.ToUpper(f[i]) {
		case "POLICY":
			i++
			cfg.Policy, err = hmts.ParseOverloadPolicy(arg(f, i))
		case "BUFFER":
			i++
			var n int
			n, err = strconv.Atoi(arg(f, i))
			if err == nil && n < 1 {
				err = fmt.Errorf("BUFFER must be >= 1")
			}
			cfg.Buffer = n
		case "RATE":
			i++
			cfg.RateHint, err = strconv.ParseFloat(arg(f, i), 64)
		default:
			err = fmt.Errorf("unknown option %q", f[i])
		}
		if err != nil {
			s.send("ERR %v", err)
			return
		}
	}
	ext := hmts.External(name, cfg)
	s.externals[name] = ext
	s.sources[name] = s.eng.Source(name, ext.Spec())
	s.send("OK source %s external policy %s", name, ext.Stats().Policy)
}

// parsePush parses the PUSH argument list: <name> <ts> <key> <val>. The
// name comes back lowercased, ready for the externals lookup. Pure so the
// fuzz harness can hammer it without a session.
func parsePush(rest string) (name string, e hmts.Element, err error) {
	f := strings.Fields(rest)
	if len(f) != 4 {
		return "", hmts.Element{}, fmt.Errorf("PUSH needs: <source> <ts> <key> <val>")
	}
	ts, err1 := strconv.ParseInt(f[1], 10, 64)
	key, err2 := strconv.ParseInt(f[2], 10, 64)
	val, err3 := strconv.ParseFloat(f[3], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return "", hmts.Element{}, fmt.Errorf("PUSH: malformed element %q", rest)
	}
	return strings.ToLower(f[0]), hmts.Element{TS: hmts.Time(ts), Key: key, Val: val}, nil
}

// cmdPush is deliberately silent on success — pushers pipeline thousands
// of lines without reading — and the overload policy decides the fate of
// an element hitting a full buffer (counted in METRICS, never a protocol
// error).
func (s *session) cmdPush(rest string) {
	name, e, err := parsePush(rest)
	if err != nil {
		s.send("ERR %v", err)
		return
	}
	ext, ok := s.externals[name]
	if !ok {
		s.send("ERR no external source %q", name)
		return
	}
	ext.Push(e)
}

// frameRecordSize is the wire size of one PUSHB record: ts int64, key
// int64, val float64, all little-endian.
const frameRecordSize = 24

// maxFrameCount bounds one PUSHB frame (<= 24MB of payload).
const maxFrameCount = 1 << 20

// parseFrameHeader parses the PUSHB argument list <source> <count> and
// bounds the count so a hostile header cannot size an arbitrary
// allocation. Pure so the fuzz harness can hammer it without a session.
func parseFrameHeader(rest string) (name string, count int, err error) {
	f := strings.Fields(rest)
	if len(f) != 2 {
		return "", 0, fmt.Errorf("PUSHB needs: <source> <count>")
	}
	count, err = strconv.Atoi(f[1])
	if err != nil || count < 0 || count > maxFrameCount {
		return "", 0, fmt.Errorf("PUSHB: bad count %q", f[1])
	}
	return strings.ToLower(f[0]), count, nil
}

// decodeFrame decodes len(els) binary records from buf into els. buf must
// hold at least len(els)*frameRecordSize bytes — the caller sized both
// from the same validated count.
func decodeFrame(buf []byte, els []hmts.Element) {
	for i := range els {
		rec := buf[i*frameRecordSize:]
		els[i] = hmts.Element{
			TS:  hmts.Time(binary.LittleEndian.Uint64(rec)),
			Key: int64(binary.LittleEndian.Uint64(rec[8:])),
			Val: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
		}
	}
}

// cmdPushBatch handles PUSHB <name> <count> plus its binary body. A
// non-nil error means the connection byte stream is desynced and the
// session must end; protocol-level problems with an intact stream (unknown
// source, full buffer) are reported in-band instead.
func (s *session) cmdPushBatch(rest string) error {
	name, count, err := parseFrameHeader(rest)
	if err != nil {
		return err
	}
	need := count * frameRecordSize
	if cap(s.frameBuf) < need {
		s.frameBuf = make([]byte, need)
	}
	buf := s.frameBuf[:need]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return fmt.Errorf("PUSHB: short frame: %v", err)
	}
	ext, ok := s.externals[name]
	if !ok {
		// The frame was consumed, so the stream stays in sync.
		s.send("ERR no external source %q", name)
		return nil
	}
	if cap(s.frameEls) < count {
		s.frameEls = make([]hmts.Element, count)
	}
	els := s.frameEls[:count]
	decodeFrame(buf, els)
	accepted := ext.PushBatch(els)
	s.send("OK %d %d", accepted, count-accepted)
	return nil
}

func (s *session) cmdClose(rest string) {
	f := strings.Fields(rest)
	if len(f) != 1 {
		s.send("ERR CLOSE needs a source name")
		return
	}
	ext, ok := s.externals[strings.ToLower(f[0])]
	if !ok {
		s.send("ERR no external source %q", f[0])
		return
	}
	ext.Close()
	s.send("OK closed %s", f[0])
}

func (s *session) cmdQuery(rest string) {
	f := strings.Fields(rest)
	if len(f) > 0 {
		switch strings.ToUpper(f[0]) {
		case "ADD":
			s.cmdQueryAdd(strings.TrimSpace(rest[len(f[0]):]))
			return
		case "DROP":
			s.cmdQueryDrop(f[1:])
			return
		}
	}
	// Legacy QUERY keeps its pre-start-only contract but registers through
	// the same multi-query layer, so identical queries share a plan.
	if s.started {
		s.send("ERR engine already started (use QUERY ADD on a running engine)")
		return
	}
	s.cmdQueryAdd(rest)
}

// cmdQueryAdd registers a standing query; before START it only extends
// the graph, on a running engine the plan is spliced in live.
func (s *session) cmdQueryAdd(sel string) {
	q, err := ql.Parse(sel)
	if err != nil {
		s.send("ERR %v", err)
		return
	}
	id := s.queries
	name := fmt.Sprintf("q%d", id)
	err = s.eng.AddQuery(name, &resultSink{s: s, id: id}, func() (*hmts.Stream, error) {
		return ql.Plan(s.eng, s.sources, q)
	})
	if err != nil {
		s.send("ERR %v", err)
		return
	}
	s.queries++
	s.qnames[id] = name
	s.send("OK %d", id)
}

// cmdQueryDrop removes a standing query by the id QUERY/QUERY ADD
// returned. On a running engine in-flight results for the query are
// flushed, then its DONE marker is sent.
func (s *session) cmdQueryDrop(f []string) {
	if len(f) != 1 {
		s.send("ERR QUERY DROP needs a query id")
		return
	}
	id, err := strconv.Atoi(f[0])
	name, ok := s.qnames[id]
	if err != nil || !ok {
		s.send("ERR no query %q", f[0])
		return
	}
	if err := s.eng.DropQuery(name); err != nil {
		s.send("ERR %v", err)
		return
	}
	delete(s.qnames, id)
	s.send("OK dropped %d", id)
}

func (s *session) cmdStart(rest string) {
	if s.started {
		s.send("ERR engine already started")
		return
	}
	if s.queries == 0 {
		s.send("ERR no queries registered")
		return
	}
	// Pull out an optional BOUND <n> pair before mode/strategy parsing.
	bound := 0
	f := strings.Fields(rest)
	for i := 0; i < len(f); i++ {
		if strings.ToUpper(f[i]) != "BOUND" {
			continue
		}
		n, err := strconv.Atoi(arg(f, i+1))
		if err != nil || n < 1 {
			s.send("ERR BOUND needs a positive queue bound")
			return
		}
		bound = n
		f = append(f[:i], f[i+2:]...)
		break
	}
	mode, strategy, err := parseMode(strings.Join(f, " "))
	if err != nil {
		s.send("ERR %v", err)
		return
	}
	if err := s.eng.Run(hmts.RunConfig{Mode: mode, Strategy: strategy, QueueBound: bound}); err != nil {
		s.send("ERR %v", err)
		return
	}
	s.started = true
	s.send("OK running %v", mode)
}

func (s *session) cmdMode(rest string) {
	if !s.started {
		s.send("ERR not started")
		return
	}
	mode, strategy, err := parseMode(rest)
	if err != nil {
		s.send("ERR %v", err)
		return
	}
	if err := s.eng.SwitchMode(mode, strategy); err != nil {
		s.send("ERR %v", err)
		return
	}
	s.send("OK mode %v", mode)
}

func (s *session) cmdRebalance() {
	if !s.started {
		s.send("ERR not started")
		return
	}
	if err := s.eng.Rebalance(); err != nil {
		s.send("ERR %v", err)
		return
	}
	s.send("OK rebalanced")
}

func (s *session) cmdMetrics() {
	m := s.eng.Metrics()
	s.mu.Lock()
	for _, line := range strings.Split(strings.TrimRight(m.String(), "\n"), "\n") {
		fmt.Fprintf(s.w, "INFO %s\n", line)
	}
	fmt.Fprintf(s.w, "OK metrics\n")
	s.w.Flush()
	s.mu.Unlock()
}

func parseMode(rest string) (hmts.Mode, string, error) {
	f := strings.Fields(strings.ToLower(rest))
	mode := hmts.ModeHMTS
	strategy := ""
	if len(f) > 0 {
		switch f[0] {
		case "gts":
			mode = hmts.ModeGTS
		case "ots":
			mode = hmts.ModeOTS
		case "di":
			mode = hmts.ModeDI
		case "pure-di", "puredi":
			mode = hmts.ModePureDI
		case "hmts":
			mode = hmts.ModeHMTS
		default:
			return 0, "", fmt.Errorf("unknown mode %q", f[0])
		}
	}
	if len(f) > 1 {
		strategy = f[1]
	}
	return mode, strategy, nil
}

// resultSink streams query results to the client connection. Under direct
// interoperability the sink runs inside the partition that feeds it, so
// its cost is charged to the upstream operator's c(v): results are encoded
// without allocating, and a batch takes the session lock once.
type resultSink struct {
	s  *session
	id int
}

// A signature drift must fail the build rather than silently fall back to
// per-element delivery.
var _ op.Sink = (*resultSink)(nil)

// maxResultLine bounds one encoded RESULT line: the keyword, three
// 20-byte integers, a 24-byte float and the separators.
const maxResultLine = 96

// appendResult appends one result line to b, byte-identical to
// fmt.Sprintf("RESULT %d %d %d %g\n", id, e.TS, e.Key, e.Val).
func appendResult(b []byte, id int, e hmts.Element) []byte {
	b = append(b, "RESULT "...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.TS, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Key, 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, e.Val, 'g', -1, 64)
	return append(b, '\n')
}

// Process implements hmts.Sink.
func (r *resultSink) Process(port int, e hmts.Element) {
	r.ProcessBatch(port, []hmts.Element{e})
}

// ProcessBatch implements op.Sink, so the engine hands it whole batches
// instead of calling Process per element. The batch takes the session lock
// once and kicks the background flusher once; the flusher pushes the lines
// out within a few milliseconds, so high result rates do not pay a syscall
// per line. Each line is encoded straight into the write buffer, flushed
// first when the line might not fit. Write errors stay sticky in the
// bufio.Writer and are dropped here: a vanished client ends the session on
// the read side.
func (r *resultSink) ProcessBatch(_ int, es []hmts.Element) {
	s := r.s
	s.mu.Lock()
	for _, e := range es {
		if s.w.Available() < maxResultLine {
			s.w.Flush()
		}
		s.w.Write(appendResult(s.w.AvailableBuffer(), r.id, e))
	}
	s.mu.Unlock()
	select {
	case s.flushReq <- struct{}{}:
	default:
	}
}

// Done implements hmts.Sink.
func (r *resultSink) Done(int) {
	r.s.send("DONE %d", r.id)
}
