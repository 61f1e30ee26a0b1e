package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"

	hmts "github.com/dsms/hmts"
)

// Ingestion throughput of the two wire encodings, measured per element
// through a live daemon: the line protocol pays parsing and per-line
// dispatch, the framed batch protocol amortizes both over 512 elements.
// `make bench` records these next to the scheduler numbers.

// benchSession starts an in-process daemon, dials it, and runs the setup
// commands, each of which must answer OK.
func benchSession(b *testing.B, setup ...string) (net.Conn, *bufio.Reader) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go newSession(conn).serve()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	b.Cleanup(func() { conn.Close() })
	r := bufio.NewReaderSize(conn, 1<<16)
	if err := awaitOK(r); err != nil {
		b.Fatal(err)
	}
	for _, cmd := range setup {
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			b.Fatalf("write: %v", err)
		}
		if err := awaitOK(r); err != nil {
			b.Fatalf("%s: %v", cmd, err)
		}
	}
	return conn, r
}

// awaitOK reads lines until an OK, failing on ERR.
func awaitOK(r *bufio.Reader) error {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "OK") {
			return nil
		}
		if strings.HasPrefix(line, "ERR") {
			return fmt.Errorf("server: %s", strings.TrimSpace(line))
		}
	}
}

var ingestSetup = []string{
	"SOURCE ext EXTERNAL POLICY block BUFFER 65536",
	"QUERY SELECT * FROM ext WHERE key < 0",
	"START gts",
}

func BenchmarkIngestLine(b *testing.B) {
	conn, r := benchSession(b, ingestSetup...)
	w := bufio.NewWriterSize(conn, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WriteString("PUSH ext ")
		w.WriteString(strconv.Itoa(i + 1))
		w.WriteString(" 1 1.5\n")
	}
	w.Flush()
	// PUSH is silent, so a METRICS round-trip behind the pipelined lines
	// proves the daemon has parsed and admitted every one of them.
	if _, err := conn.Write([]byte("METRICS\n")); err != nil {
		b.Fatalf("write: %v", err)
	}
	if err := awaitOK(r); err != nil {
		b.Fatal(err)
	}
}

// ingestFrame builds one PUSHB frame of count constant elements.
func ingestFrame(count int) []byte {
	header := []byte("PUSHB ext " + strconv.Itoa(count) + "\n")
	buf := make([]byte, len(header)+count*frameRecordSize)
	copy(buf, header)
	for i := 0; i < count; i++ {
		rec := buf[len(header)+i*frameRecordSize:]
		binary.LittleEndian.PutUint64(rec, 1)
		binary.LittleEndian.PutUint64(rec[8:], 1)
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(1.5))
	}
	return buf
}

func BenchmarkIngestFramed(b *testing.B) {
	const frameN = 512
	conn, r := benchSession(b, ingestSetup...)
	full := ingestFrame(frameN)
	frames, rem := b.N/frameN, b.N%frameN
	total := frames
	if rem > 0 {
		total++
	}
	// Each frame answers one OK line; drain them concurrently so the
	// daemon's write buffer cannot stall the push pipeline.
	errc := make(chan error, 1)
	go func() {
		for n := 0; n < total; n++ {
			if err := awaitOK(r); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	w := bufio.NewWriterSize(conn, 1<<16)
	b.ResetTimer()
	for i := 0; i < frames; i++ {
		w.Write(full)
	}
	if rem > 0 {
		w.Write(ingestFrame(rem))
	}
	w.Flush()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// egressBatch is the batch size the result egress bench and its
// allocation guard deliver, matching a full PUSHB frame.
const egressBatch = 512

// egressSink returns a result sink on a session whose writer discards its
// output, and one batch of results with varied widths.
func egressSink() (*resultSink, []hmts.Element) {
	s := &session{w: bufio.NewWriterSize(io.Discard, 64*1024), flushReq: make(chan struct{}, 1)}
	es := make([]hmts.Element, egressBatch)
	for i := range es {
		es[i] = hmts.Element{TS: hmts.Time(1_700_000_000_000 + i), Key: int64(i % 1000), Val: float64(i) * 0.37}
	}
	return &resultSink{s: s, id: 3}, es
}

// BenchmarkResultEgress measures the sink half of the result path: a batch
// arriving at a query's resultSink is encoded into the session's write
// buffer under one lock. One op is one RESULT line.
func BenchmarkResultEgress(b *testing.B) {
	r, es := egressSink()
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= egressBatch {
		r.ProcessBatch(0, es[:min(n, egressBatch)])
	}
}

// TestResultEgressZeroAllocs guards the steady-state egress path: encoding
// a batch of results must not allocate. One run delivers enough batches
// to fill the 64 KB write buffer twice, so an allocation on buffer
// overflow shows even though AllocsPerRun rounds down.
func TestResultEgressZeroAllocs(t *testing.T) {
	const batches = 8
	r, es := egressSink()
	a := testing.AllocsPerRun(50, func() {
		for i := 0; i < batches; i++ {
			r.ProcessBatch(0, es)
		}
	})
	if a != 0 {
		t.Fatalf("%d batches of %d results: %v allocs, want 0", batches, len(es), a)
	}
}
