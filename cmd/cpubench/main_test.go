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
	if err := run([]string{"-reps", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4*2 {
		t.Fatalf("records = %d, want 8 (4 ladder levels x 2 reps)", res.Len())
	}
	for _, rec := range res.Records {
		if rec.Value <= 0 {
			t.Fatalf("effective MHz %v", rec.Value)
		}
	}
}

func TestDesignFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	designPath := filepath.Join(dir, "design.csv")
	design := "seq,rep,nloops,loopcycles\n0,0,50,100000\n1,0,500,100000\n"
	if err := os.WriteFile(designPath, []byte(design), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.csv")
	envPath := filepath.Join(dir, "env.json")
	var buf bytes.Buffer
	err := run([]string{"-design", designPath, "-governor", "powersave", "-o", outPath, "-env", envPath}, &buf)
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
	if env.Get("governor") != "powersave" {
		t.Fatalf("env governor = %q", env.Get("governor"))
	}
}

func TestGovernorPolicyAndTableFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-governor", "ondemand", "-policy", "rt", "-reps", "1"},
		{"-governor", "conservative", "-reps", "1"},
		{"-governor", "userspace", "-target-ghz", "2.6", "-reps", "1"},
		{"-table", "snowball", "-reps", "1"},
		{"-table", "1.2,2.4,3.6", "-reps", "1"},
		{"-duty", "0.5", "-reps", "1"},
		{"-unpinned", "-reps", "1"},
		{"-governor", "ondemand", "-gap", "0.03", "-reps", "1"},
	}
	for _, c := range cases {
		if err := run(c, &buf); err != nil {
			t.Fatalf("args %v: %v", c, err)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-table", "cray"},
		{"-table", "i9"}, // misspelled name must get the unknown-table error, not a parse error
		{"-table", "3.4,1.6"},
		{"-table", "1.6,fast"},
		{"-governor", "warp"},
		{"-governor", "userspace"}, // no -target-ghz: would silently pin the minimum
		{"-policy", "fifo99"},
		{"-duty", "0"},
		{"-duty", "1.5"},
		{"-design", "/nonexistent/design.csv"},
		{"-design", "/nonexistent/design.csv", "-duty", "0.5"}, // -duty only shapes generated designs
		{"-wat"},
	}
	for _, c := range cases {
		if err := run(c, &buf); err == nil {
			t.Fatalf("args %v accepted", c)
		}
	}
}

// TestSerialIndexedMatchesWorkers8 is the acceptance criterion: a serial
// indexed run and a -workers 8 sharded run over the same design and seed
// produce byte-identical CSV.
func TestSerialIndexedMatchesWorkers8(t *testing.T) {
	base := []string{"-reps", "3", "-seed", "6"}
	var serial, sharded bytes.Buffer
	if err := run(append(append([]string{}, base...), "-indexed"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-workers", "8"), &sharded); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("no output")
	}
	if !bytes.Equal(serial.Bytes(), sharded.Bytes()) {
		t.Fatal("serial indexed CSV differs from -workers 8 CSV")
	}
}

func TestParallelWorkersReproducible(t *testing.T) {
	base := []string{"-reps", "1", "-seed", "3"}
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
	for _, c := range [][]string{
		{"-governor", "ondemand", "-reps", "1", "-workers", "4"},
		{"-governor", "conservative", "-reps", "1", "-workers", "4"},
		{"-unpinned", "-reps", "1", "-workers", "4"},
		{"-governor", "ondemand", "-reps", "1", "-indexed"},
	} {
		if err := run(append(c, "-o", outPath), &buf); err == nil {
			t.Fatalf("args %v accepted", c)
		}
		if data, err := os.ReadFile(outPath); err != nil || string(data) != "precious" {
			t.Fatalf("args %v: rejected run touched the output file: %q, %v", c, data, err)
		}
	}
}

func TestJSONLOutput(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "raw.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-reps", "1", "-workers", "2", "-jsonl", jsonlPath}, &buf); err != nil {
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
	// Second row lacks a parseable nloops, so trial 1 fails mid-campaign.
	bad := "seq,rep,nloops\n0,0,100\n1,0,forever\n"
	if err := os.WriteFile(designPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		outPath := filepath.Join(dir, "out"+workers+".csv")
		if err := os.WriteFile(outPath, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run([]string{"-design", designPath, "-workers", workers, "-o", outPath}, &buf); err == nil {
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
