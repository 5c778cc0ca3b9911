package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"opaquebench/internal/core"
	"opaquebench/internal/cpubench"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/meta"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/ossim"
)

// stubEngine is a trial-indexed engine: the record is a pure function of
// the trial, with an optional artificial delay and failure injection.
type stubEngine struct {
	delay  func(seq int) time.Duration
	failAt int // Seq that errors; -1 for never
	mu     *sync.Mutex
	calls  *[]int // execution order capture, shared across instances
}

func (s *stubEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if s.delay != nil {
		time.Sleep(s.delay(t.Seq))
	}
	if s.calls != nil {
		s.mu.Lock()
		*s.calls = append(*s.calls, t.Seq)
		s.mu.Unlock()
	}
	if t.Seq == s.failAt {
		return core.RawRecord{}, fmt.Errorf("boom")
	}
	rec := core.RawRecord{Value: float64(t.Seq) * 2, Seconds: 1, At: float64(t.Seq)}
	rec.Annotate("w", strconv.Itoa(t.Seq))
	return rec, nil
}

func (s *stubEngine) Environment() *meta.Environment { return meta.New() }

func stubFactory(e *stubEngine) core.EngineFactory {
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		c := *e
		return &c, nil
	})
}

func stubDesign(t *testing.T, n int) *doe.Design {
	t.Helper()
	levels := make([]int, n)
	for i := range levels {
		levels[i] = i + 1
	}
	d, err := doe.FullFactorial([]doe.Factor{doe.IntFactor("f", levels...)},
		doe.Options{Seed: 3, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunFillsDesignOrder(t *testing.T) {
	d := stubDesign(t, 37)
	for _, workers := range []int{1, 3, 8, 64} {
		res, err := Run(context.Background(), d, stubFactory(&stubEngine{failAt: -1}), Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Len() != d.Size() {
			t.Fatalf("workers=%d: %d records, want %d", workers, res.Len(), d.Size())
		}
		for i, rec := range res.Records {
			if rec.Seq != i {
				t.Fatalf("workers=%d: record %d has Seq %d", workers, i, rec.Seq)
			}
			if rec.Value != float64(i)*2 {
				t.Fatalf("workers=%d: record %d has Value %v", workers, i, rec.Value)
			}
			if rec.Rep != d.Trials[i].Rep || rec.Point.Key() != d.Trials[i].Point.Key() {
				t.Fatalf("workers=%d: record %d rep/point mismatch", workers, i)
			}
		}
		if got := res.Env.Get("runner/workers"); got == "" {
			t.Fatalf("workers=%d: missing runner/workers env", workers)
		}
	}
}

func TestRunDefaultsAndEdges(t *testing.T) {
	if _, err := Run(context.Background(), nil, stubFactory(&stubEngine{failAt: -1}), Config{}); err == nil {
		t.Fatal("nil design accepted")
	}
	if _, err := Run(context.Background(), stubDesign(t, 3), nil, Config{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := Sequential(context.Background(), nil, &stubEngine{failAt: -1}); err == nil {
		t.Fatal("Sequential accepted a nil design")
	}
	if _, err := Sequential(context.Background(), stubDesign(t, 3), nil); err == nil {
		t.Fatal("Sequential accepted a nil engine")
	}
	// Workers <= 0 falls back to GOMAXPROCS; more workers than trials clamps.
	res, err := Run(context.Background(), stubDesign(t, 2), stubFactory(&stubEngine{failAt: -1}), Config{Workers: -1})
	if err != nil || res.Len() != 2 {
		t.Fatalf("defaulted workers: res=%v err=%v", res, err)
	}
	empty := &doe.Design{Factors: []doe.Factor{doe.IntFactor("f", 1)}}
	res, err = Run(context.Background(), empty, stubFactory(&stubEngine{failAt: -1}), Config{Workers: 4})
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty design: res=%v err=%v", res, err)
	}
}

// edgeWorkers are the worker counts the edge tests run at: the inline
// one-worker schedule and the sharded one.
var edgeWorkers = []int{1, 4}

func TestRunFirstErrorWins(t *testing.T) {
	d := stubDesign(t, 50)
	for _, workers := range edgeWorkers {
		_, err := Run(context.Background(), d, stubFactory(&stubEngine{failAt: 17}), Config{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		want := fmt.Sprintf("runner: trial 17 (%s): boom", d.Trials[17].Point.Key())
		if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

// historyEngine is stateful: each record carries how many trials the
// engine executed before it, across every campaign it ran.
type historyEngine struct{ calls int }

func (e *historyEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	e.calls++
	return core.RawRecord{Value: float64(e.calls)}, nil
}

func (e *historyEngine) Environment() *meta.Environment {
	return meta.New().Set("engine", "history")
}

// TestSequentialCapturesEnvironment: the result's environment is the
// engine's own, stamped with the design metadata and the one worker.
func TestSequentialCapturesEnvironment(t *testing.T) {
	res, err := Sequential(context.Background(), stubDesign(t, 6), &historyEngine{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"engine": "history", "design/trials": "6", "design/seed": "3",
		"design/randomized": "true", "runner/workers": "1",
	} {
		if got := res.Env.Get(k); got != want {
			t.Fatalf("env %s = %q, want %q", k, got, want)
		}
	}
}

// TestSequentialKeepsEngineHistory: a caller-owned engine keeps its state
// from trial to trial and from one campaign to the next, the contract
// history-dependent engines run under.
func TestSequentialKeepsEngineHistory(t *testing.T) {
	eng := &historyEngine{}
	for campaign := 0; campaign < 2; campaign++ {
		res, err := Sequential(context.Background(), stubDesign(t, 5), eng)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range res.Records {
			if want := float64(campaign*5 + i + 1); rec.Value != want || rec.Seq != i {
				t.Fatalf("campaign %d record %d: seq %d value %v, want seq %d value %v",
					campaign, i, rec.Seq, rec.Value, i, want)
			}
		}
	}
}

func TestRunFactoryErrorSurfaces(t *testing.T) {
	factory := core.EngineFactoryFunc(func() (core.Engine, error) {
		return nil, fmt.Errorf("no engine for you")
	})
	if _, err := Run(context.Background(), stubDesign(t, 3), factory, Config{Workers: 2}); err == nil {
		t.Fatal("expected factory error")
	}
}

func TestRunContextCancellation(t *testing.T) {
	d := stubDesign(t, 1000)
	eng := &stubEngine{failAt: -1, delay: func(int) time.Duration { return time.Millisecond }}
	for _, workers := range edgeWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := Run(ctx, d, stubFactory(eng), Config{Workers: workers})
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: canceled run returned %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: run did not stop after cancellation", workers)
		}
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	d := stubDesign(t, 23)
	for _, workers := range edgeWorkers {
		var seen []int
		_, err := Run(context.Background(), d, stubFactory(&stubEngine{failAt: -1}), Config{
			Workers: workers,
			Progress: func(done, total int) {
				if total != 23 {
					t.Errorf("workers=%d: total = %d, want 23", workers, total)
				}
				seen = append(seen, done)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 23 {
			t.Fatalf("workers=%d: progress called %d times, want 23", workers, len(seen))
		}
		for i, v := range seen {
			if v != i+1 {
				t.Fatalf("workers=%d: progress[%d] = %d, want %d", workers, i, v, i+1)
			}
		}
	}
}

// TestRunSinkSeesDesignOrder forces out-of-order completion (early trials
// sleep longest) and asserts the sink still observes records 0, 1, 2, ...
func TestRunSinkSeesDesignOrder(t *testing.T) {
	d := stubDesign(t, 24)
	eng := &stubEngine{
		failAt: -1,
		delay: func(seq int) time.Duration {
			return time.Duration(24-seq) * 200 * time.Microsecond
		},
	}
	var got []int
	sink := sinkFunc(func(rec core.RawRecord) error {
		got = append(got, rec.Seq)
		return nil
	})
	if _, err := Run(context.Background(), d, stubFactory(eng), Config{Workers: 6, Sinks: []RecordSink{sink}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("sink saw %d records, want 24", len(got))
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("sink order broken at %d: got seq %d", i, seq)
		}
	}
}

func TestRunSinkErrorAborts(t *testing.T) {
	d := stubDesign(t, 40)
	for _, workers := range edgeWorkers {
		n := 0
		sink := sinkFunc(func(core.RawRecord) error {
			n++
			if n == 5 {
				return fmt.Errorf("disk full")
			}
			return nil
		})
		_, err := Run(context.Background(), d, stubFactory(&stubEngine{failAt: -1}), Config{Workers: workers, Sinks: []RecordSink{sink}})
		if err == nil || !strings.Contains(err.Error(), "runner: sink: disk full") {
			t.Fatalf("workers=%d: err = %v, want the sink error", workers, err)
		}
		if n != 5 {
			t.Fatalf("workers=%d: sink written %d times after failing on the 5th", workers, n)
		}
	}
}

// sinkFunc adapts a function to RecordSink for tests.
type sinkFunc func(core.RawRecord) error

func (f sinkFunc) Write(rec core.RawRecord) error { return f(rec) }
func (f sinkFunc) Flush() error                   { return nil }

// --- Equivalence with a serial reference loop ---------------------------

// serialRun is the reference executor the equivalence tests compare the
// runner against, independent of the code under test: one engine executes
// every trial in design order, each record stamped with its trial's Seq,
// Rep and point as the runner stamps it.
func serialRun(t *testing.T, d *doe.Design, factory core.EngineFactory) *core.Results {
	t.Helper()
	eng, err := factory.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Results{Design: d, Env: eng.Environment()}
	for _, tr := range d.Trials {
		rec, err := eng.Execute(tr)
		if err != nil {
			t.Fatalf("serial trial %d: %v", tr.Seq, err)
		}
		rec.Seq, rec.Rep = tr.Seq, tr.Rep
		if rec.Point == nil {
			rec.Point = tr.Point
		}
		res.Records = append(res.Records, rec)
	}
	return res
}

func membenchFixture(t *testing.T) (*doe.Design, membench.Config) {
	t.Helper()
	d, err := doe.FullFactorial(
		membench.Factors([]int{4 << 10, 64 << 10, 1 << 20}, []int{1, 4}, nil, []int{50}, nil),
		doe.Options{Replicates: 3, Seed: 7, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, membench.Config{Machine: memsim.CoreI7(), Seed: 7}
}

func netbenchFixture(t *testing.T) (*doe.Design, netbench.Config) {
	t.Helper()
	d, err := netbench.Design(11, 60, 64, 1<<20, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return d, netbench.Config{
		Profile:   netsim.Taurus(),
		Seed:      11,
		Perturber: netsim.NewPerturber(4, netsim.Window{Start: 0.004, End: 0.02}),
	}
}

// assertRecordsIdentical checks the full record payload: Seq, Rep, the
// factor combination, the primary metric, and the raw timing columns.
func assertRecordsIdentical(t *testing.T, label string, serial, parallel *core.Results) {
	t.Helper()
	if parallel.Len() != serial.Len() {
		t.Fatalf("%s: %d records, want %d", label, parallel.Len(), serial.Len())
	}
	for i := range serial.Records {
		a, b := serial.Records[i], parallel.Records[i]
		if a.Seq != b.Seq || a.Rep != b.Rep {
			t.Fatalf("%s: record %d seq/rep: serial (%d,%d) parallel (%d,%d)",
				label, i, a.Seq, a.Rep, b.Seq, b.Rep)
		}
		if a.Point.Key() != b.Point.Key() {
			t.Fatalf("%s: record %d point: %q vs %q", label, i, a.Point.Key(), b.Point.Key())
		}
		if a.Value != b.Value || a.Seconds != b.Seconds || a.At != b.At {
			t.Fatalf("%s: record %d payload: serial (%v,%v,%v) parallel (%v,%v,%v)",
				label, i, a.Value, a.Seconds, a.At, b.Value, b.Seconds, b.At)
		}
		if len(a.Extra) != len(b.Extra) {
			t.Fatalf("%s: record %d extras differ", label, i)
		}
		for k, v := range a.Extra {
			if b.Extra[k] != v {
				t.Fatalf("%s: record %d extra %q: %q vs %q", label, i, k, v, b.Extra[k])
			}
		}
	}
}

func TestMembenchParallelMatchesSerial(t *testing.T) {
	d, cfg := membenchFixture(t)
	factory := membench.Factory(cfg)
	serial := serialRun(t, d, factory)
	var serialCSV bytes.Buffer
	if err := serial.WriteCSV(&serialCSV); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var parCSV bytes.Buffer
		par, err := Run(context.Background(), d, factory,
			Config{Workers: workers, Sinks: []RecordSink{NewCSVSink(&parCSV)}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertRecordsIdentical(t, fmt.Sprintf("membench workers=%d", workers), serial, par)
		if !bytes.Equal(serialCSV.Bytes(), parCSV.Bytes()) {
			t.Fatalf("workers=%d: streamed CSV differs from serial WriteCSV", workers)
		}
	}
}

func TestNetbenchParallelMatchesSerial(t *testing.T) {
	d, cfg := netbenchFixture(t)
	factory := netbench.Factory(cfg)
	serial := serialRun(t, d, factory)
	var serialCSV bytes.Buffer
	if err := serial.WriteCSV(&serialCSV); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var parCSV bytes.Buffer
		par, err := Run(context.Background(), d, factory,
			Config{Workers: workers, Sinks: []RecordSink{NewCSVSink(&parCSV)}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertRecordsIdentical(t, fmt.Sprintf("netbench workers=%d", workers), serial, par)
		if !bytes.Equal(serialCSV.Bytes(), parCSV.Bytes()) {
			t.Fatalf("workers=%d: streamed CSV differs from serial WriteCSV", workers)
		}
	}
}

func cpubenchFixture(t *testing.T) (*doe.Design, cpubench.Config) {
	t.Helper()
	d, err := doe.FullFactorial(
		cpubench.Factors([]int{20, 2000}, []int{100_000}, []float64{0.5, 1}),
		doe.Options{Replicates: 3, Seed: 13, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	// The RT-policy daemon exercises the interference windows in indexed
	// mode: window materialization is lazy, so out-of-order SlowdownAt
	// queries across sharded workers are exactly what this guards.
	return d, cpubench.Config{
		Seed:     13,
		Governor: cpusim.Userspace{TargetHz: 2.6e9},
		Sched:    ossim.Config{Policy: ossim.PolicyRT, DaemonPeriodSec: 0.5},
	}
}

func TestCpubenchParallelMatchesSerial(t *testing.T) {
	d, cfg := cpubenchFixture(t)
	factory := cpubench.Factory(cfg)
	serial := serialRun(t, d, factory)
	var serialCSV bytes.Buffer
	if err := serial.WriteCSV(&serialCSV); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var parCSV bytes.Buffer
		par, err := Run(context.Background(), d, factory,
			Config{Workers: workers, Sinks: []RecordSink{NewCSVSink(&parCSV)}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertRecordsIdentical(t, fmt.Sprintf("cpubench workers=%d", workers), serial, par)
		if !bytes.Equal(serialCSV.Bytes(), parCSV.Bytes()) {
			t.Fatalf("workers=%d: streamed CSV differs from serial WriteCSV", workers)
		}
	}
}

// TestParallelRunsAreReproducible reruns the same sharded campaign and
// demands bit-identical output — the determinism guarantee of DESIGN.md.
func TestParallelRunsAreReproducible(t *testing.T) {
	d, cfg := membenchFixture(t)
	factory := membench.Factory(cfg)
	first, err := Run(context.Background(), d, factory, Config{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), d, factory, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertRecordsIdentical(t, "rerun", first, second)
}

// TestRunFlushesPrefixOnFailure pins the crash-durability promise: when a
// trial fails mid-campaign, the records already streamed in design order
// must reach the sink's underlying writer, not die in a csv buffer.
func TestRunFlushesPrefixOnFailure(t *testing.T) {
	d := stubDesign(t, 10)
	for _, workers := range edgeWorkers {
		var buf bytes.Buffer
		_, err := Run(context.Background(), d, stubFactory(&stubEngine{failAt: 5}),
			Config{Workers: workers, Sinks: []RecordSink{NewCSVSink(&buf)}})
		if err == nil {
			t.Fatalf("workers=%d: failing campaign reported success", workers)
		}
		// One worker executes 0,1,2,... in order and fails at 5, so exactly
		// the header and rows 0-4 form the flushed prefix. Sharded, the
		// failure can cancel workers before they finish an earlier trial,
		// so the prefix may stop short of row 4.
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if (workers == 1 && len(lines) != 6) || len(lines) > 6 {
			t.Fatalf("workers=%d: flushed %d CSV lines, want header+5 rows:\n%s", workers, len(lines), buf.String())
		}
		if buf.Len() == 0 {
			continue
		}
		parsed, perr := core.ReadCSV(&buf)
		if perr != nil {
			t.Fatalf("workers=%d: flushed prefix does not parse: %v", workers, perr)
		}
		for i, rec := range parsed.Records {
			if rec.Seq != i {
				t.Fatalf("workers=%d: prefix record %d has seq %d", workers, i, rec.Seq)
			}
		}
	}
}
