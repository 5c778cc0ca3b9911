package runner

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"opaquebench/internal/core"
)

// RecordSink consumes a campaign's raw records one at a time, in design
// order, as the runner's ordered prefix extends. Implementations are driven
// from a single goroutine and need not be safe for concurrent use.
//
// The file-backed sinks latch their first I/O error: once a write or flush
// has failed at the writer, every subsequent call returns that error
// without emitting another byte. The latch is what keeps a failed
// campaign's output merely truncated — a torn tail after a short write can
// never be followed by further records, which would corrupt the middle of
// the file instead of its end. Validation rejections (a record that does
// not fit the frozen CSV header) write nothing and do not latch; the valid
// prefix remains flushable.
type RecordSink interface {
	// Write appends one record.
	Write(rec core.RawRecord) error
	// Flush forces any buffered output down; the runner calls it once
	// after the last record.
	Flush() error
}

// sinkBufBytes is the write-buffer size of the file-backed sinks — the same
// 4 KB encoding/csv uses internally, so CSV output batches into identical
// syscall granularity as before the hand-rolled encoders.
const sinkBufBytes = 4096

// blockSink is implemented by the sinks whose encoding can run on the
// worker that ran a trial instead of on the collector: CSVSink and
// JSONLSink. The sharded runner gives each worker one encoder per such
// sink; other sinks take every record through Write on the collector.
type blockSink interface {
	RecordSink
	newEncoder() recordEncoder
}

// recordEncoder encodes records for one sink on one worker, and hands them
// to the sink on the collector. encode runs on the worker, write on the
// collector, after the block holding the bytes crossed the channel.
type recordEncoder interface {
	// encode appends rec's bytes exactly as the sink's Write would write
	// them. When it cannot vouch for that, it returns dst unchanged (every
	// encoding is non-empty, ending in a newline).
	encode(dst []byte, rec core.RawRecord) []byte
	// write hands rec to the sink as Write(rec) would, in design order: p
	// is what encode appended for rec, and an empty p sends rec through
	// Write itself, so every validation error and latch stays at its
	// position in the stream.
	write(rec core.RawRecord, p []byte) error
}

// CSVSink streams records as CSV, row by row, producing byte-identical
// output to core.Results.WriteCSV for campaigns whose records share one
// factor and extra key set (as engine-generated records do). The header is
// derived from the first record; an empty campaign flushes the fixed
// columns only.
//
// Rows are encoded with core.AppendCSVRow into a buffer owned by the sink,
// or by the worker that ran the trial (see blockSink), so the per-record
// path allocates nothing once the buffer has grown to the campaign's row
// size.
type CSVSink struct {
	bw      *bufio.Writer
	row     []byte
	cols    *csvColumns
	same    *csvColumns // a worker encoder's column set last found equal to cols
	started bool
	err     error
}

// csvColumns is a CSV stream's column set, derived from one record: its
// sorted factor and extra keys.
type csvColumns struct {
	factors, extras []string
	knownF, knownX  map[string]bool
}

func newCSVColumns(rec core.RawRecord) *csvColumns {
	c := &csvColumns{factors: sortedKeys(rec.Point), extras: sortedKeys(rec.Extra)}
	c.knownF = make(map[string]bool, len(c.factors))
	c.knownX = make(map[string]bool, len(c.extras))
	for _, f := range c.factors {
		c.knownF[f] = true
	}
	for _, e := range c.extras {
		c.knownX[e] = true
	}
	return c
}

// check rejects a record carrying a factor or extra key outside the column
// set. (Keys *missing* from a record are fine; they serialize as empty
// cells, as Results.WriteCSV does.)
func (c *csvColumns) check(rec core.RawRecord) error {
	for k := range rec.Point {
		if !c.knownF[k] {
			return fmt.Errorf("runner: record %d carries factor %q absent from the CSV header; use a JSONL sink for heterogeneous records", rec.Seq, k)
		}
	}
	for k := range rec.Extra {
		if !c.knownX[k] {
			return fmt.Errorf("runner: record %d carries extra %q absent from the CSV header; use a JSONL sink for heterogeneous records", rec.Seq, k)
		}
	}
	return nil
}

// NewCSVSink returns a sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{bw: bufio.NewWriterSize(w, sinkBufBytes)}
}

// Write implements RecordSink. A record carrying a factor or extra key
// absent from the first record's column set is an error: a streamed header
// cannot grow, and silently dropping the column would lose raw data — the
// one thing the methodology forbids.
func (s *CSVSink) Write(rec core.RawRecord) error {
	if s.err != nil {
		return s.err
	}
	if !s.started {
		s.cols = newCSVColumns(rec)
		if err := s.writeHeader(); err != nil {
			return err
		}
	}
	// Validation rejections are NOT latched: they write zero bytes, so the
	// sink stays healthy and a later Flush still delivers the valid
	// buffered prefix — the error-path guarantee of DESIGN.md section 8.
	if err := s.cols.check(rec); err != nil {
		return err
	}
	s.row = core.AppendCSVRow(s.row[:0], rec, s.cols.factors, s.cols.extras)
	return s.writeRow(s.row)
}

// writeRow writes one encoded row, latching a failed write.
func (s *CSVSink) writeRow(row []byte) error {
	if _, err := s.bw.Write(row); err != nil {
		return s.latch(fmt.Errorf("runner: write csv row: %w", err))
	}
	return nil
}

// latch records the sink's first I/O error; every later Write/Flush
// returns it without touching the writer again.
func (s *CSVSink) latch(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

func (s *CSVSink) writeHeader() error {
	var factors, extras []string
	if s.cols != nil {
		factors, extras = s.cols.factors, s.cols.extras
	}
	header, err := core.CSVHeader(factors, extras)
	if err != nil {
		// A reserved factor name is a validation rejection, not an I/O
		// failure: nothing was written, so the sink is not latched, but
		// the header cannot freeze either.
		return err
	}
	s.started = true
	s.row = core.AppendCSVStrings(s.row[:0], header)
	if _, err := s.bw.Write(s.row); err != nil {
		return s.latch(fmt.Errorf("runner: write csv header: %w", err))
	}
	return nil
}

// Flush implements RecordSink. After a failed I/O write it returns the
// latched error without flushing: the buffer may hold a partial row, and
// pushing it down would tear a line in the output.
func (s *CSVSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	if !s.started {
		if err := s.writeHeader(); err != nil {
			return err
		}
	}
	if err := s.bw.Flush(); err != nil {
		return s.latch(fmt.Errorf("runner: flush csv: %w", err))
	}
	return nil
}

func (s *CSVSink) newEncoder() recordEncoder { return &csvEncoder{s: s} }

// csvEncoder encodes rows on a worker against the column set of the
// worker's first record. A row is exact when its record passes that column
// set's check and the set equals the sink's frozen header, which the
// collector confirms before it writes the row.
type csvEncoder struct {
	s    *CSVSink
	cols *csvColumns // set on the first encode and never changed after
}

func (e *csvEncoder) encode(dst []byte, rec core.RawRecord) []byte {
	if e.cols == nil {
		e.cols = newCSVColumns(rec)
	}
	if e.cols.check(rec) != nil {
		return dst
	}
	return core.AppendCSVRow(dst, rec, e.cols.factors, e.cols.extras)
}

func (e *csvEncoder) write(rec core.RawRecord, p []byte) error {
	s := e.s
	if s.err != nil {
		return s.err
	}
	if len(p) == 0 || !s.started || !s.sameColumns(e.cols) {
		return s.Write(rec)
	}
	return s.writeRow(p)
}

// sameColumns reports whether a worker encoder's column set equals the
// sink's frozen header. Column sets never change once built, so a match is
// remembered and the check costs one comparison per record after the
// first of a block.
func (s *CSVSink) sameColumns(c *csvColumns) bool {
	if c == s.same {
		return true
	}
	if !slices.Equal(c.factors, s.cols.factors) || !slices.Equal(c.extras, s.cols.extras) {
		return false
	}
	s.same = c
	return true
}

// JSONLSink streams records as JSON Lines: one self-describing object per
// record, so heterogeneous factor sets and late schema growth need no
// header coordination.
//
// The fixed schema — seq, rep, value, seconds, at, then optional point and
// extra objects with sorted keys — is encoded by hand into a buffer owned
// by the sink (or by the worker that ran the trial, see blockSink),
// byte-identical to encoding/json's output for the same record, and
// written through a bufio.Writer so a million-trial campaign batches its
// records into page-sized writes instead of one syscall per record.
type JSONLSink struct {
	bw  *bufio.Writer
	buf []byte
	jsonlKeys
	err error
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriterSize(w, sinkBufBytes)}
}

// Write implements RecordSink. Output is buffered; a failed (possibly
// short) write can leave a torn final line, and the error is latched so no
// later record is ever appended after the tear.
func (s *JSONLSink) Write(rec core.RawRecord) error {
	if s.err != nil {
		return s.err
	}
	buf, err := s.appendRecord(s.buf[:0], rec)
	if err != nil {
		// An unencodable value (NaN/Inf) latches like encoding/json's
		// encoder error did: zero bytes reached the writer, but the record
		// stream now has a hole, so continuing would misrepresent the
		// campaign.
		s.err = fmt.Errorf("runner: write jsonl: %w", err)
		return s.err
	}
	s.buf = buf
	return s.writeLine(s.buf)
}

// writeLine writes one encoded line, latching a failed write.
func (s *JSONLSink) writeLine(line []byte) error {
	if _, err := s.bw.Write(line); err != nil {
		s.err = fmt.Errorf("runner: write jsonl: %w", err)
		return s.err
	}
	return nil
}

func (s *JSONLSink) newEncoder() recordEncoder { return &jsonlEncoder{s: s} }

// jsonlEncoder encodes lines on a worker. A record with a non-finite value
// is left to the sink's Write, which latches its error in stream order.
type jsonlEncoder struct {
	s *JSONLSink
	jsonlKeys
}

func (e *jsonlEncoder) encode(dst []byte, rec core.RawRecord) []byte {
	out, err := e.appendRecord(dst, rec)
	if err != nil {
		return dst
	}
	return out
}

func (e *jsonlEncoder) write(rec core.RawRecord, p []byte) error {
	s := e.s
	if s.err != nil {
		return s.err
	}
	if len(p) == 0 {
		return s.Write(rec)
	}
	return s.writeLine(p)
}

// jsonlKeys is the JSONL encoder's scratch: the sorted keys of the point
// or extra map being encoded.
type jsonlKeys struct {
	keys []string
}

// appendRecord encodes one record in the fixed JSONL schema.
func (s *jsonlKeys) appendRecord(dst []byte, rec core.RawRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	dst = append(dst, `,"rep":`...)
	dst = strconv.AppendInt(dst, int64(rec.Rep), 10)
	dst = append(dst, `,"value":`...)
	if dst, err = appendJSONFloat(dst, rec.Value); err != nil {
		return nil, err
	}
	dst = append(dst, `,"seconds":`...)
	if dst, err = appendJSONFloat(dst, rec.Seconds); err != nil {
		return nil, err
	}
	dst = append(dst, `,"at":`...)
	if dst, err = appendJSONFloat(dst, rec.At); err != nil {
		return nil, err
	}
	if len(rec.Point) > 0 {
		dst = append(dst, `,"point":`...)
		s.keys = s.keys[:0]
		for k := range rec.Point {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		for i, k := range s.keys {
			if i == 0 {
				dst = append(dst, '{')
			} else {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, string(rec.Point[k]))
		}
		dst = append(dst, '}')
	}
	if len(rec.Extra) > 0 {
		dst = append(dst, `,"extra":`...)
		s.keys = s.keys[:0]
		for k := range rec.Extra {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		for i, k := range s.keys {
			if i == 0 {
				dst = append(dst, '{')
			} else {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, rec.Extra[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
}

// Flush implements RecordSink, pushing the buffered tail down; only a
// latched error suppresses it.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	if err := s.bw.Flush(); err != nil {
		s.err = fmt.Errorf("runner: flush jsonl: %w", err)
		return s.err
	}
	return nil
}

// appendJSONFloat appends a float exactly as encoding/json encodes it:
// shortest 'f' form, switching to 'e' with a trimmed exponent for very
// small or very large magnitudes. Non-finite values are an error, as they
// are for encoding/json.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends a quoted string exactly as encoding/json escapes
// it with HTML escaping on (the Encoder default): quotes and backslashes
// escaped, control characters as \b \f \n \r \t or \u00xx, <, > and & as
// \u00xx, invalid UTF-8 bytes as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MemorySink buffers the record stream in memory — the replay-to-memory
// counterpart of the file sinks. The differential comparator
// (internal/compare) drives cached suite entries through it to rebuild a
// campaign's value series without touching the filesystem; anything that
// consumes the RecordSink stream can use it to capture a campaign whole.
type MemorySink struct {
	// Records accumulates every written record in stream (design) order.
	Records []core.RawRecord
}

// Write implements RecordSink.
func (s *MemorySink) Write(rec core.RawRecord) error {
	s.Records = append(s.Records, rec)
	return nil
}

// Flush implements RecordSink.
func (s *MemorySink) Flush() error { return nil }

// FileSinks opens the conventional command-line sink set: a streaming CSV
// sink on w — redirected to outPath when non-empty — plus an optional JSONL
// sink on jsonlPath, with OpenFiles' preservation guarantees. The returned
// closers own the files opened; the caller closes them after the campaign.
func FileSinks(w io.Writer, outPath, jsonlPath string) ([]RecordSink, []io.Closer, error) {
	csvFile, jsonlFile, err := OpenFiles(outPath, jsonlPath)
	if err != nil {
		return nil, nil, err
	}
	var closers []io.Closer
	if csvFile != nil {
		w = csvFile
		closers = append(closers, csvFile)
	}
	sinks := []RecordSink{NewCSVSink(w)}
	if jsonlFile != nil {
		sinks = append(sinks, NewJSONLSink(jsonlFile))
		closers = append(closers, jsonlFile)
	}
	return sinks, closers, nil
}

// WriteFiles writes a finished campaign through the FileSinks set and
// closes the files it opened — the engine CLIs' output step, taken only
// after the campaign succeeded so a failed one leaves earlier results
// untouched.
func WriteFiles(res *core.Results, w io.Writer, outPath, jsonlPath string) error {
	sinks, closers, err := FileSinks(w, outPath, jsonlPath)
	if err != nil {
		return err
	}
	for _, s := range sinks {
		if err = WriteAll(res, s); err != nil {
			break
		}
	}
	for _, c := range closers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// OpenFiles opens a campaign's CSV and JSONL output files for writing and
// truncates them; an empty path yields a nil file. The caller closes the
// files.
//
// The two paths must name different files: opening the same file twice
// would interleave CSV and JSONL bytes into one corrupt stream, so the
// collision is rejected before anything is opened or truncated.
//
// Truncation happens only after every output opened successfully, so an
// invocation that fails on one path cannot destroy another file's previous
// results — the same preservation guarantee the engine CLIs give a failed
// campaign by opening their outputs only after it succeeds. On error any
// file already opened is closed and nothing is returned.
func OpenFiles(outPath, jsonlPath string) (csv, jsonl *os.File, err error) {
	if outPath != "" && jsonlPath != "" && filepath.Clean(outPath) == filepath.Clean(jsonlPath) {
		return nil, nil, fmt.Errorf("runner: CSV and JSONL outputs both point at %q; one file cannot carry both streams", outPath)
	}
	var files []*os.File
	fail := func(err error) (*os.File, *os.File, error) {
		for _, f := range files {
			f.Close()
		}
		return nil, nil, err
	}
	open := func(path string) (*os.File, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
		if err == nil {
			files = append(files, f)
		}
		return f, err
	}
	if outPath != "" {
		if csv, err = open(outPath); err != nil {
			return fail(err)
		}
	}
	if jsonlPath != "" {
		if jsonl, err = open(jsonlPath); err != nil {
			return fail(err)
		}
	}
	for _, f := range files {
		if err := f.Truncate(0); err != nil {
			return fail(err)
		}
	}
	return csv, jsonl, nil
}

// WriteAll drains a fully-materialized result set through a sink.
func WriteAll(res *core.Results, sink RecordSink) error {
	for _, rec := range res.Records {
		if err := sink.Write(rec); err != nil {
			return err
		}
	}
	return sink.Flush()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
