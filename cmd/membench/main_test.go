package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/meta"
)

func TestDefaultCampaign(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machine", "opteron", "-reps", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no records")
	}
	for _, rec := range res.Records {
		if rec.Value <= 0 {
			t.Fatalf("bandwidth %v", rec.Value)
		}
	}
}

func TestDesignFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	designPath := filepath.Join(dir, "design.csv")
	design := "seq,rep,nloops,size,stride\n0,0,50,4096,1\n1,0,50,8192,1\n"
	if err := os.WriteFile(designPath, []byte(design), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.csv")
	envPath := filepath.Join(dir, "env.json")
	var buf bytes.Buffer
	err := run([]string{"-machine", "p4", "-design", designPath, "-o", outPath, "-env", envPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := core.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("records = %d, want 2", res.Len())
	}
	ef, err := os.Open(envPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	env, err := meta.ReadJSON(ef)
	if err != nil {
		t.Fatal(err)
	}
	if env.Get("machine") != "Pentium 4" {
		t.Fatalf("env machine = %q", env.Get("machine"))
	}
}

func TestGovernorAndPolicyFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machine", "i7", "-governor", "ondemand", "-policy", "rt", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-machine", "i7", "-governor", "powersave", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-machine", "i7", "-governor", "userspace", "-target-ghz", "2.6", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-machine", "cray"},
		{"-machine", "i7", "-governor", "warp"},
		{"-machine", "i7", "-governor", "userspace"}, // no -target-ghz
		{"-machine", "i7", "-policy", "fifo99"},
		{"-machine", "i7", "-alloc", "slab"},
		{"-design", "/nonexistent/design.csv"},
		{"-wat"},
	}
	for _, c := range cases {
		if err := run(c, &buf); err == nil {
			t.Fatalf("args %v accepted", c)
		}
	}
}

func TestParallelWorkersReproducible(t *testing.T) {
	base := []string{"-machine", "p4", "-reps", "1", "-seed", "3"}
	var first, second bytes.Buffer
	if err := run(append(append([]string{}, base...), "-workers", "4"), &first); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-workers", "2"), &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("sharded campaign output depends on worker count")
	}
	res, err := core.ReadCSV(&first)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no records")
	}
	for i, rec := range res.Records {
		if rec.Seq != i {
			t.Fatalf("record %d out of design order (seq %d)", i, rec.Seq)
		}
	}
}

func TestParallelRejectsSequentialOnlyConfig(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "out.csv")
	if err := os.WriteFile(outPath, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-machine", "i7", "-governor", "ondemand", "-reps", "1", "-workers", "4", "-o", outPath}, &buf)
	if err == nil {
		t.Fatal("ondemand governor accepted with -workers 4")
	}
	if data, err := os.ReadFile(outPath); err != nil || string(data) != "precious" {
		t.Fatalf("rejected run touched the output file: %q, %v", data, err)
	}
}

func TestJSONLOutput(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "raw.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-machine", "p4", "-reps", "1", "-workers", "2", "-jsonl", jsonlPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lines != res.Len() {
		t.Fatalf("%d JSONL lines for %d records", lines, res.Len())
	}
}

// TestFailedRunPreservesOutputFile feeds a design with a bad row and
// checks the -o target survives untouched at one worker and sharded: the
// outputs open only after the campaign succeeds.
func TestFailedRunPreservesOutputFile(t *testing.T) {
	dir := t.TempDir()
	designPath := filepath.Join(dir, "design.csv")
	// Second row lacks a parseable size, so trial 1 fails mid-campaign.
	bad := "seq,rep,size\n0,0,4096\n1,0,enormous\n"
	if err := os.WriteFile(designPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		outPath := filepath.Join(dir, "out"+workers+".csv")
		if err := os.WriteFile(outPath, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run([]string{"-machine", "p4", "-design", designPath, "-workers", workers, "-o", outPath}, &buf); err == nil {
			t.Fatalf("workers=%s: campaign with a bad trial reported success", workers)
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "precious" {
			t.Fatalf("workers=%s: failed run clobbered the output file: %q", workers, data)
		}
	}
}
