package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOutput renders go test -bench output with one campaign benchmark at
// the given ns/op (10k trials per op) and one record-encode benchmark with
// the given allocation columns ("" for a run without -benchmem).
func benchOutput(campaignNs, encodeMem string) string {
	return `goos: linux
goarch: amd64
pkg: opaquebench
cpu: Test CPU
BenchmarkCampaign10kSerial-2      	       1	` + campaignNs + ` ns/op
BenchmarkCSVSinkEncodeRecord-2    	 1000000	       500.0 ns/op` + encodeMem + `
PASS
ok  	opaquebench	1.0s
`
}

// history is a trajectory whose one entry ran the campaign at 2000
// trials/sec.
const history = `{"label":"base","when":"2026-01-01","benchmarks":{"BenchmarkCampaign10kSerial":{"ns_per_op":5000000000,"b_per_op":0,"allocs_per_op":0,"trials_per_sec":2000}}}
`

// runBench runs the command in-process on the given input against a
// temporary copy of traj, returning its output, the trajectory file's
// contents afterwards and its error.
func runBench(t *testing.T, input, traj string, args ...string) (out, after string, err error) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(file, []byte(traj), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err = run(append([]string{"-file", file, "-label", "test", "-when", "2026-01-02"}, args...),
		strings.NewReader(input), &stdout)
	data, rerr := os.ReadFile(file)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return stdout.String(), string(data), err
}

func TestGate(t *testing.T) {
	cases := []struct {
		name       string
		campaignNs string
		wantGate   string // "" when the gate must pass
	}{
		{"pass", "5200000000", ""}, // 1923 trials/sec, 4% below the median
		{"regress", "10000000000", "BenchmarkCampaign10kSerial: 1000 trials/sec is 50.0% below the trajectory median 2000"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, after, err := runBench(t, benchOutput(c.campaignNs, " 0 B/op 0 allocs/op"), history, "-gate", "-append")
			if c.wantGate == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, out)
				}
				if strings.Count(after, "\n") != 2 || !strings.Contains(after, `"label":"test"`) {
					t.Fatalf("passing run not appended:\n%s", after)
				}
				return
			}
			if err == nil || err.Error() != "1 gate failure(s)" {
				t.Fatalf("err = %v, want 1 gate failure\n%s", err, out)
			}
			if !strings.Contains(out, "GATE: "+c.wantGate) {
				t.Fatalf("output lacks %q:\n%s", c.wantGate, out)
			}
			if after != history {
				t.Fatalf("a failing run was appended:\n%s", after)
			}
		})
	}
}

func TestMaxAllocs(t *testing.T) {
	cases := []struct {
		name     string
		mem      string
		wantGate string // "" when the budget must hold
	}{
		{"pass", " 0 B/op 0 allocs/op", ""},
		{"over budget", " 48 B/op 2 allocs/op", "BenchmarkCSVSinkEncodeRecord: 2 allocs/op exceeds the budget of 0"},
		{"unmeasured", "", "BenchmarkCSVSinkEncodeRecord: allocations not measured (run with -benchmem)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, _, err := runBench(t, benchOutput("5000000000", c.mem), history, "-max-allocs", "0")
			if c.wantGate == "" {
				if err != nil {
					t.Fatalf("budget failed: %v\n%s", err, out)
				}
				return
			}
			if err == nil || err.Error() != "1 gate failure(s)" {
				t.Fatalf("err = %v, want 1 gate failure\n%s", err, out)
			}
			if !strings.Contains(out, "GATE: "+c.wantGate) {
				t.Fatalf("output lacks %q:\n%s", c.wantGate, out)
			}
		})
	}
}

func TestNoBenchmarkInput(t *testing.T) {
	if _, _, err := runBench(t, "PASS\n", history); err == nil {
		t.Fatal("input without benchmark results accepted")
	}
}
