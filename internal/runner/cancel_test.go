package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
)

// cancelingEngine is a trial-indexed stub that cancels the campaign context
// after a fixed number of executions across all workers — the shape of an
// operator interrupt or a suite-level abort landing mid-campaign.
type cancelingEngine struct {
	cancel  context.CancelFunc
	after   int64
	counter *int64
}

func (e *cancelingEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if atomic.AddInt64(e.counter, 1) == e.after {
		e.cancel()
	}
	rec := core.RawRecord{Value: float64(t.Seq) * 2, Seconds: 1, At: float64(t.Seq)}
	rec.Annotate("w", "x")
	return rec, nil
}

func (e *cancelingEngine) Environment() *meta.Environment { return meta.New() }

// TestCancellationLeavesNoTornLines is the runner error-path guarantee: a
// campaign canceled mid-flight must leave its CSV and JSONL files holding
// complete records only — a byte prefix of the full run, every line intact —
// at realistic worker counts, under the race detector.
func TestCancellationLeavesNoTornLines(t *testing.T) {
	d := stubDesign(t, 400)

	// Full-run references for the prefix checks, from an engine producing
	// the same records but never canceling (after: -1 never matches).
	full := serialRun(t, d, core.EngineFactoryFunc(func() (core.Engine, error) {
		return &cancelingEngine{cancel: func() {}, after: -1, counter: new(int64)}, nil
	}))
	var refCSV, refJSONL bytes.Buffer
	if err := full.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(full, NewJSONLSink(&refJSONL)); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{4, 8} {
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "out.csv")
		jsonlPath := filepath.Join(dir, "out.jsonl")
		sinks, closers, err := FileSinks(&bytes.Buffer{}, csvPath, jsonlPath)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var counter int64
		factory := core.EngineFactoryFunc(func() (core.Engine, error) {
			return &cancelingEngine{cancel: cancel, after: 37, counter: &counter}, nil
		})
		_, runErr := Run(ctx, d, factory, Config{Workers: workers, Sinks: sinks})
		cancel()
		for _, c := range closers {
			c.Close()
		}
		if runErr == nil {
			t.Fatalf("workers=%d: canceled run reported success", workers)
		}

		gotCSV, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		gotJSONL, err := os.ReadFile(jsonlPath)
		if err != nil {
			t.Fatal(err)
		}
		// The cancel can land before trial 0 finishes; then no record
		// reached the sinks and both files stay empty. An empty CSV beside
		// a non-empty JSONL would mean the sinks disagree.
		if len(gotCSV) == 0 && len(gotJSONL) != 0 {
			t.Fatalf("workers=%d: CSV is empty but JSONL holds %d bytes", workers, len(gotJSONL))
		}
		if len(gotCSV) > 0 && gotCSV[len(gotCSV)-1] != '\n' {
			t.Fatalf("workers=%d: CSV does not end on a line boundary (%d bytes)", workers, len(gotCSV))
		}
		if !bytes.HasPrefix(refCSV.Bytes(), gotCSV) {
			t.Fatalf("workers=%d: CSV is not a byte prefix of the full run (%d bytes)", workers, len(gotCSV))
		}
		parsed := &core.Results{}
		if len(gotCSV) > 0 {
			if parsed, err = core.ReadCSV(bytes.NewReader(gotCSV)); err != nil {
				t.Fatalf("workers=%d: flushed CSV does not parse: %v", workers, err)
			}
		}
		for i, rec := range parsed.Records {
			if rec.Seq != i {
				t.Fatalf("workers=%d: CSV record %d has seq %d — the design-order prefix broke", workers, i, rec.Seq)
			}
		}

		if len(gotJSONL) > 0 && gotJSONL[len(gotJSONL)-1] != '\n' {
			t.Fatalf("workers=%d: JSONL does not end on a line boundary", workers)
		}
		if !bytes.HasPrefix(refJSONL.Bytes(), gotJSONL) {
			t.Fatalf("workers=%d: JSONL is not a byte prefix of the full run", workers)
		}
		sc := bufio.NewScanner(bytes.NewReader(gotJSONL))
		seq := 0
		for sc.Scan() {
			var obj struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
				t.Fatalf("workers=%d: JSONL line %d torn: %v", workers, seq, err)
			}
			if obj.Seq != seq {
				t.Fatalf("workers=%d: JSONL line %d has seq %d", workers, seq, obj.Seq)
			}
			seq++
		}
		if parsed.Len() != seq {
			t.Fatalf("workers=%d: CSV has %d records but JSONL %d — the sinks disagree", workers, parsed.Len(), seq)
		}
	}
}

// failFirstEngine fails trial 0 and succeeds on every other trial.
type failFirstEngine struct{}

func (failFirstEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	if t.Seq == 0 {
		return core.RawRecord{}, errors.New("trial 0 fails")
	}
	return core.RawRecord{Value: float64(t.Seq), Seconds: 1, At: float64(t.Seq)}, nil
}

func (failFirstEngine) Environment() *meta.Environment { return meta.New() }

// TestFailedFirstTrialLeavesEmptyFiles: when no record reaches the sinks,
// the error path must leave the CSV and JSONL files empty. A bare CSV
// header of the fixed columns is not a prefix of any real run, which has
// factor columns too.
func TestFailedFirstTrialLeavesEmptyFiles(t *testing.T) {
	d := stubDesign(t, 40)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "out.csv")
		jsonlPath := filepath.Join(dir, "out.jsonl")
		sinks, closers, err := FileSinks(&bytes.Buffer{}, csvPath, jsonlPath)
		if err != nil {
			t.Fatal(err)
		}
		factory := core.EngineFactoryFunc(func() (core.Engine, error) { return failFirstEngine{}, nil })
		_, runErr := Run(context.Background(), d, factory, Config{Workers: workers, Sinks: sinks})
		for _, c := range closers {
			c.Close()
		}
		if runErr == nil {
			t.Fatalf("workers=%d: failed run reported success", workers)
		}
		for _, path := range []string{csvPath, jsonlPath} {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("workers=%d: %s holds %q, want empty", workers, filepath.Base(path), got)
			}
		}
	}
}
