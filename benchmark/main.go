// Command benchmark is opaquebench's end-to-end benchmark. It drives the
// system only through its public Go APIs (suite, store, runner, engine,
// adapt and serve over httptest), runs four workloads, checks that every
// op's output is correct, and prints every metric by name with its unit.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains how to run and read them.
//
// Usage:
//
//	benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	benchmark compare A... -- B...
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"opaquebench/internal/stats"
)

func main() {
	serveReferenceIfAsked()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process, in an order shuffled by -seed)")
	seed := fs.Uint64("seed", 1, "seed the workloads' inputs derive from")
	seconds := fs.Float64("seconds", 25, "length of each workload's timed phase, in seconds (it runs on until 120 ops are timed)")
	trace := fs.String("trace", "0", "1 for the traced run, which reports per-layer metrics")
	out := fs.String("out", "", "directory to write results, raw per-op samples and traces to (default: write nothing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout, stderr)
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: -trace takes 0 or 1, and no positional arguments are accepted\n")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, minOps: defaultMinOps,
		setups: defaultSetups, setupFloor: defaultSetupFloor, trace: traced}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o777); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name == "" {
		err = runAll(ctx, cfg, *out, stdout, stderr)
	} else {
		err = runOne(ctx, cfg, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process. Its last line of output is the
// one-line JSON summary: end-to-end metrics, or per-layer ones when traced.
func runOne(ctx context.Context, cfg runConfig, out string, stdout, stderr io.Writer) error {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	if out != "" {
		if cfg.trace {
			checkAgainstUntraced(res, filepath.Join(out, res.Workload+".ops.jsonl"))
		}
		if err := writeRun(res, out); err != nil {
			return err
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "%s: FAILED %s\n", res.Workload, f)
	}
	printMetrics(stdout, res)

	defs := endToEnd
	vals := res.Metrics
	if cfg.trace {
		defs, vals = perLayer, res.Layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		summary.Metrics[d.Name] = metric{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func printMetrics(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d ops in %.1f s, %d failed; set-ups %.3v s; host %d CPUs, W=%d, %s; noisy=%v\n",
		res.Workload, mode, res.Seed, res.Attempted, res.PhaseSeconds, res.Failed, res.SetupSeconds,
		res.Host.NumCPU, res.Host.W, res.Host.CPUModel, res.Noisy)
	fmt.Fprintf(w, "  reference kernel: p%g %.4g ms over %d samples; times below are scaled by %.4f to the nominal %g ms\n",
		refQuantile*100, stats.Quantile(res.Reference.SamplesMs, refQuantile), len(res.Reference.SamplesMs), res.Scale, refNominalMs)
	show := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				continue
			}
			extra := ""
			if v.N > 0 {
				extra = fmt.Sprintf(" (n=%d", v.N)
				if d.Name == "op_ms_p90" {
					extra += fmt.Sprintf(", %d beyond", v.Beyond)
				}
				extra += ")"
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", d.Name, v.Value, d.Unit, extra)
		}
	}
	show(append(append([]metricDef(nil), endToEnd...), failedFrac), res.Metrics)
	if res.Trace {
		show(perLayer, res.Layers)
		show(workloadLayers, res.Layers)
	}
}

// writeRun writes one workload run's files into out: <workload>.result.json,
// the raw per-op samples (<workload>.ops.jsonl, or .trace.ops.jsonl when
// traced) and, traced, the spans (<workload>.trace.json).
func writeRun(res *result, out string) error {
	suffix := ""
	if res.Trace {
		suffix = ".trace"
		if err := writeJSON(filepath.Join(out, res.Workload+".trace.json"), res.trace); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(out, res.Workload+suffix+".ops.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range res.samples {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(out, res.Workload+suffix+".result.json"), res)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// checkAgainstUntraced fails every traced op whose output digest differs
// from the same op (same client, index and seed) of an untraced run of the
// same workload, when that run's samples are at path.
func checkAgainstUntraced(res *result, path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	type key struct {
		client, index int
		seed          uint64
	}
	want := map[key]string{}
	dec := json.NewDecoder(f)
	for {
		var s opSample
		if err := dec.Decode(&s); err != nil {
			break
		}
		if s.Err == "" {
			want[key{s.Client, s.Index, s.Seed}] = s.Digest
		}
	}
	for i := range res.samples {
		s := &res.samples[i]
		if d, ok := want[key{s.Client, s.Index, s.Seed}]; ok && s.Err == "" && d != s.Digest {
			s.fail("traced output differs from the untraced run's")
		}
	}
	res.Failures = failures(res.samples)
	res.Failed = len(res.Failures)
	res.Metrics[failedFrac.Name] = value{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: failedFrac.Unit, N: res.Attempted}
}

// report is the merged record of every workload of one invocation:
// results.json for the untraced run, layers.json for the traced one.
type report struct {
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Order     []string  `json:"order"`
	Workloads []*result `json:"workloads"`
}

// runAll runs every workload, each in a child process of this program, in
// an order shuffled by the seed, and merges their records into out. A traced
// invocation first makes sure out holds an untraced run of the same seed,
// the baseline for the tracing overhead and for the traced outputs' bytes.
func runAll(ctx context.Context, cfg runConfig, out string, stdout, stderr io.Writer) error {
	if out == "" {
		dir, err := os.MkdirTemp("", "bench-out-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		out = dir
	}
	var base *report
	if cfg.trace {
		base, _ = readReport(filepath.Join(out, "results.json"))
		if base == nil || base.Seed != cfg.seed || base.Trace {
			untraced := cfg
			untraced.trace = false
			if err := runAll(ctx, untraced, out, stdout, stderr); err != nil {
				return err
			}
			var err error
			if base, err = readReport(filepath.Join(out, "results.json")); err != nil {
				return err
			}
		}
	}
	order := make([]string, len(workloads))
	for i, w := range workloads {
		order[i] = w.name
	}
	rand.New(rand.NewPCG(cfg.seed, 0x5eed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &report{Seed: cfg.seed, Trace: cfg.trace, Order: order}
	traces := map[string]json.RawMessage{}
	suffix := ""
	if cfg.trace {
		suffix = ".trace"
	}
	for _, name := range order {
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", strconv.FormatBool(cfg.trace), "-out", out}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		resPath := filepath.Join(out, name+suffix+".result.json")
		var res result
		if err := readJSON(resPath, &res); err != nil {
			return err
		}
		if cfg.trace {
			tracePath := filepath.Join(out, name+".trace.json")
			data, err := os.ReadFile(tracePath)
			if err != nil {
				return err
			}
			traces[name] = data
			for _, b := range base.Workloads {
				if b.Workload == name && b.Metrics["op_ms_p50"].Value > 0 {
					o := res.Metrics["op_ms_p50"].Value/b.Metrics["op_ms_p50"].Value - 1
					res.Overhead = &o
				}
			}
			if err := os.Remove(tracePath); err != nil {
				return err
			}
		}
		// The merged report replaces the child's own record.
		if err := os.Remove(resPath); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, &res)
	}

	summary := "results.json"
	if cfg.trace {
		summary = "layers.json"
		if err := writeJSON(filepath.Join(out, "trace.json"), traces); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(out, summary), rep); err != nil {
		return err
	}
	printTable(stdout, rep)
	for _, r := range rep.Workloads {
		if r.Failed > 0 {
			return fmt.Errorf("workload %s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// printTable prints every end-to-end metric of every workload, and the
// tracing overhead of a traced report.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n%-16s", "metric")
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintf(w, "  unit\n")
	for _, d := range append(append([]metricDef(nil), endToEnd...), failedFrac) {
		fmt.Fprintf(w, "%-16s", d.Name)
		for _, r := range rep.Workloads {
			fmt.Fprintf(w, " %14.6g", r.Metrics[d.Name].Value)
		}
		fmt.Fprintf(w, "  %s\n", d.Unit)
	}
	if rep.Trace {
		fmt.Fprintf(w, "%-16s", "tracing_overhead")
		for _, r := range rep.Workloads {
			if r.Overhead != nil {
				fmt.Fprintf(w, " %+13.1f%%", *r.Overhead*100)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintf(w, "  share\n")
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readReport reads a results file: a merged report, or a single workload's
// <workload>.result.json, which it wraps.
func readReport(path string) (*report, error) {
	var rep report
	if err := readJSON(path, &rep); err != nil {
		return nil, err
	}
	if len(rep.Workloads) > 0 {
		return &rep, nil
	}
	var res result
	if err := readJSON(path, &res); err != nil {
		return nil, err
	}
	if res.Workload == "" {
		return nil, errors.New(path + ": neither a report nor a workload result")
	}
	return &report{Seed: res.Seed, Trace: res.Trace, Order: []string{res.Workload}, Workloads: []*result{&res}}, nil
}
