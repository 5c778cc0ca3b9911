package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
)

func sampleRecords() []core.RawRecord {
	recs := make([]core.RawRecord, 3)
	for i := range recs {
		recs[i] = core.RawRecord{
			Seq:     i,
			Rep:     i % 2,
			Value:   float64(i) * 1.5,
			Seconds: 0.25,
			At:      float64(i),
			Point:   doe.Point{"size": doe.Level("4096"), "op": doe.Level("send")},
		}
		recs[i].Annotate("perturbed", "false")
	}
	return recs
}

// TestFileSinks covers the shared CLI sink-opening helper: stdout-only,
// file redirection with an extra JSONL sink, and the no-dangling-files
// error path.
func TestFileSinks(t *testing.T) {
	sinks, closers, err := FileSinks(&bytes.Buffer{}, "", "")
	if err != nil || len(sinks) != 1 || len(closers) != 0 {
		t.Fatalf("stdout-only: sinks=%d closers=%d err=%v", len(sinks), len(closers), err)
	}
	dir := t.TempDir()
	outPath := dir + "/out.csv"
	jsonlPath := dir + "/out.jsonl"
	sinks, closers, err = FileSinks(&bytes.Buffer{}, outPath, jsonlPath)
	if err != nil || len(sinks) != 2 || len(closers) != 2 {
		t.Fatalf("files: sinks=%d closers=%d err=%v", len(sinks), len(closers), err)
	}
	for _, rec := range sampleRecords() {
		for _, s := range sinks {
			if err := s.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range closers {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{outPath, jsonlPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s: empty output", p)
		}
	}
	// A JSONL path that cannot be created must close the CSV file already
	// opened, return nothing — and leave the existing CSV's previous
	// contents untouched (truncation only happens once every output is
	// open).
	if err := os.WriteFile(outPath, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FileSinks(&bytes.Buffer{}, outPath, dir+"/nope/out.jsonl"); err == nil {
		t.Fatal("uncreatable jsonl path accepted")
	}
	if data, err := os.ReadFile(outPath); err != nil || string(data) != "precious" {
		t.Fatalf("failed FileSinks clobbered the existing CSV: %q, %v", data, err)
	}
	// Reopening over previous longer contents truncates before streaming.
	sinks, closers, err = FileSinks(&bytes.Buffer{}, outPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sinks[0].Flush(); err != nil {
		t.Fatal(err)
	}
	closers[0].Close()
	if data, _ := os.ReadFile(outPath); strings.Contains(string(data), "precious") {
		t.Fatalf("stale contents survived a successful reopen: %q", data)
	}
}

func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	recs := sampleRecords()
	res := &core.Results{Records: recs}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteAll(res, NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("CSV mismatch:\nwant:\n%s\ngot:\n%s", want.String(), got.String())
	}
	// And the stream parses back to the same records.
	parsed, err := core.ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", parsed.Len(), len(recs))
	}
}

func TestCSVSinkEmptyCampaignHeaderOnly(t *testing.T) {
	var got bytes.Buffer
	s := NewCSVSink(&got)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := (&core.Results{}).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("empty CSV: got %q want %q", got.String(), want.String())
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, r := range recs {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		var obj struct {
			Seq     int               `json:"seq"`
			Rep     int               `json:"rep"`
			Value   float64           `json:"value"`
			Seconds float64           `json:"seconds"`
			At      float64           `json:"at"`
			Point   map[string]string `json:"point"`
			Extra   map[string]string `json:"extra"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		want := recs[n]
		if obj.Seq != want.Seq || obj.Rep != want.Rep || obj.Value != want.Value ||
			obj.Seconds != want.Seconds || obj.At != want.At {
			t.Fatalf("line %d: %+v vs %+v", n, obj, want)
		}
		if obj.Point["size"] != "4096" || obj.Point["op"] != "send" {
			t.Fatalf("line %d point: %v", n, obj.Point)
		}
		if obj.Extra["perturbed"] != "false" {
			t.Fatalf("line %d extra: %v", n, obj.Extra)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("%d JSONL lines, want %d", n, len(recs))
	}
}

func TestJSONLSinkOmitsEmptyPoint(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if err := sink.Write(core.RawRecord{Seq: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if strings.Contains(line, "point") || strings.Contains(line, "extra") {
		t.Fatalf("empty maps serialized: %s", line)
	}
}

// brokenWriter fails every write after the first `allow` calls, simulating
// a short write (half the payload lands, then the error) — the disk-full
// shape that tears a line.
type brokenWriter struct {
	allow    int
	attempts int
	buf      bytes.Buffer
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	w.attempts++
	if w.attempts > w.allow {
		n := len(p) / 2
		w.buf.Write(p[:n])
		return n, os.ErrClosed
	}
	w.buf.Write(p)
	return len(p), nil
}

// TestJSONLSinkLatchesWriteError: after a torn write, no further byte may
// ever reach the file — appending after the tear would corrupt the middle
// of the stream instead of truncating its end. The sink buffers, so the
// underlying writer is only touched at flush (or when the buffer spills);
// the test drives a flush per record to force each record down separately.
func TestJSONLSinkLatchesWriteError(t *testing.T) {
	w := &brokenWriter{allow: 1}
	s := NewJSONLSink(w)
	recs := sampleRecords()
	if err := s.Write(recs[0]); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	if err := s.Write(recs[1]); err != nil {
		t.Fatalf("buffered write: %v", err)
	}
	first := s.Flush()
	if first == nil {
		t.Fatal("torn flush reported success")
	}
	tornLen := w.buf.Len()
	if err := s.Write(recs[2]); err != first {
		t.Fatalf("write after tear: %v, want the latched %v", err, first)
	}
	if err := s.Flush(); err != first {
		t.Fatalf("flush after tear: %v, want the latched %v", err, first)
	}
	if w.buf.Len() != tornLen || w.attempts != 2 {
		t.Fatalf("bytes written after the tear: %d -> %d bytes, %d attempts",
			tornLen, w.buf.Len(), w.attempts)
	}
}

// TestJSONLSinkLatchesMidStreamSpill: when the buffer spills mid-campaign
// (the steady state of a large run) and the spill tears, later records must
// not reach the writer either — the latch catches errors surfaced by Write
// itself, not only by Flush.
func TestJSONLSinkLatchesMidStreamSpill(t *testing.T) {
	w := &brokenWriter{allow: 0}
	s := NewJSONLSink(w)
	rec := sampleRecords()[0]
	rec.Annotate("pad", strings.Repeat("x", 2*sinkBufBytes))
	first := s.Write(rec) // bigger than the buffer: spills, tears, latches
	if first == nil {
		t.Fatal("torn spill reported success")
	}
	tornLen := w.buf.Len()
	if err := s.Write(sampleRecords()[0]); err != first {
		t.Fatalf("write after tear: %v, want the latched %v", err, first)
	}
	if err := s.Flush(); err != first {
		t.Fatalf("flush after tear: %v, want the latched %v", err, first)
	}
	if w.buf.Len() != tornLen {
		t.Fatalf("bytes written after the tear: %d -> %d bytes", tornLen, w.buf.Len())
	}
}

// TestCSVSinkLatchesFlushError: once a flush has failed, later writes and
// flushes return the latched error and push nothing more at the writer.
func TestCSVSinkLatchesFlushError(t *testing.T) {
	w := &brokenWriter{allow: 0}
	s := NewCSVSink(w)
	recs := sampleRecords()
	if err := s.Write(recs[0]); err != nil {
		// Small rows buffer inside csv.Writer; no underlying write yet.
		t.Fatalf("buffered write: %v", err)
	}
	first := s.Flush()
	if first == nil {
		t.Fatal("flush over a broken writer reported success")
	}
	attempts := w.attempts
	if err := s.Write(recs[1]); err != first {
		t.Fatalf("write after failed flush: %v, want the latched %v", err, first)
	}
	if err := s.Flush(); err != first {
		t.Fatalf("second flush: %v, want the latched %v", err, first)
	}
	if w.attempts != attempts {
		t.Fatalf("writer attempted again after the latch: %d -> %d", attempts, w.attempts)
	}
}

func TestMemorySinkCapturesStream(t *testing.T) {
	recs := sampleRecords()
	var m MemorySink
	if err := WriteAll(&core.Results{Records: recs}, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != len(recs) {
		t.Fatalf("%d records captured, want %d", len(m.Records), len(recs))
	}
	for i, rec := range recs {
		if m.Records[i].Seq != rec.Seq || m.Records[i].Value != rec.Value {
			t.Fatalf("record %d: seq %d value %v, want %d %v",
				i, m.Records[i].Seq, m.Records[i].Value, rec.Seq, rec.Value)
		}
	}
}

// TestCSVSinkValidationRejectionDoesNotLatch: a record that does not fit
// the frozen header writes zero bytes, so it must not poison the sink —
// later valid records still stream and Flush still delivers the full valid
// prefix.
func TestCSVSinkValidationRejectionDoesNotLatch(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	recs := sampleRecords()
	if err := s.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	bad := core.RawRecord{Seq: 99, Point: doe.Point{"surprise": "1"}}
	if err := s.Write(bad); err == nil {
		t.Fatal("heterogeneous record accepted")
	}
	if err := s.Write(recs[1]); err != nil {
		t.Fatalf("valid record after a validation rejection: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after a validation rejection: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + the two valid rows
		t.Fatalf("flushed %d lines, want 3:\n%s", len(lines), buf.String())
	}
}

func TestCSVSinkRejectsLateNewColumns(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	first := core.RawRecord{Seq: 0, Point: doe.Point{"size": "1"}}
	if err := s.Write(first); err != nil {
		t.Fatal(err)
	}
	// A missing key serializes as an empty cell, like WriteCSV.
	if err := s.Write(core.RawRecord{Seq: 1, Point: doe.Point{}}); err != nil {
		t.Fatalf("record missing a factor rejected: %v", err)
	}
	// A new factor cannot join a streamed header: that would silently
	// drop raw data.
	newFactor := core.RawRecord{Seq: 2, Point: doe.Point{"size": "1", "op": "send"}}
	if err := s.Write(newFactor); err == nil {
		t.Fatal("record with a new factor accepted after the header froze")
	}
	newExtra := core.RawRecord{Seq: 3, Point: doe.Point{"size": "1"}}
	newExtra.Annotate("surprise", "1")
	if err := s.Write(newExtra); err == nil {
		t.Fatal("record with a new extra accepted after the header froze")
	}
}

// TestJSONLSinkMatchesEncodingJSON: each JSONL line is byte for byte what
// encoding/json writes for the same record, escaping included — HTML
// characters, the JavaScript line separators, control characters and
// invalid UTF-8.
func TestJSONLSinkMatchesEncodingJSON(t *testing.T) {
	awkward := []string{"<a&b>", "\u2028\u2029", "bad\xff\xfeutf8", `"q"\`, "new\nline\t\x01", "é"}
	for i, s := range awkward {
		rec := core.RawRecord{Seq: i, Value: 1e-7, Seconds: 1e21, At: -0.5,
			Point: doe.Point{"k" + s: doe.Level(s)}, Extra: map[string]string{s: s}}
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Seq     int               `json:"seq"`
			Rep     int               `json:"rep"`
			Value   float64           `json:"value"`
			Seconds float64           `json:"seconds"`
			At      float64           `json:"at"`
			Point   map[string]string `json:"point"`
			Extra   map[string]string `json:"extra"`
		}{rec.Seq, rec.Rep, rec.Value, rec.Seconds, rec.At, map[string]string{"k" + s: s}, rec.Extra})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(buf.String(), "\n"); got != string(want) {
			t.Errorf("%q:\n got %s\nwant %s", s, got, want)
		}
	}
}
