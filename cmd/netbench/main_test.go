package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"opaquebench/internal/core"
)

func TestBasicCampaign(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-profile", "taurus", "-n", "20", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no records")
	}
	ops := res.GroupBy("op")
	for _, op := range []string{"send", "recv", "pingpong"} {
		if len(ops[op]) == 0 {
			t.Fatalf("missing op %s", op)
		}
	}
}

func TestPerturbedCampaignFlagsRecords(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-profile", "myrinet-gm", "-n", "40", "-reps", "3",
		"-perturb-factor", "4", "-perturb-start", "0", "-perturb-end", "0.01"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := 0
	for _, rec := range res.Records {
		if rec.Extra["perturbed"] == "true" {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Fatal("no record flagged inside the perturbation window")
	}
}

func TestOutputFilesAndFit(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "net.csv")
	envPath := filepath.Join(dir, "env.json")
	var buf bytes.Buffer
	args := []string{"-profile", "taurus", "-n", "60", "-reps", "3", "-fit",
		"-o", outPath, "-env", envPath}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{outPath, envPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing %s: %v", p, err)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-profile", "infiniband"},
		{"-collective"}, // collectives run as the collbench suite engine
		{"-oops"},
	}
	for _, c := range cases {
		if err := run(c, &buf); err == nil {
			t.Fatalf("args %v accepted", c)
		}
	}
}

func TestParallelWorkersReproducible(t *testing.T) {
	base := []string{"-profile", "taurus", "-n", "30", "-reps", "2", "-seed", "5"}
	var w2, w6 bytes.Buffer
	if err := run(append(append([]string{}, base...), "-workers", "2"), &w2); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-workers", "6"), &w6); err != nil {
		t.Fatal(err)
	}
	if w2.String() != w6.String() {
		t.Fatal("sharded campaign output depends on worker count")
	}
	res, err := core.ReadCSV(&w2)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		if rec.Seq != i {
			t.Fatalf("record %d out of design order (seq %d)", i, rec.Seq)
		}
	}
}

func TestJSONLOutput(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "raw.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "taurus", "-n", "15", "-reps", "1", "-workers", "3", "-jsonl", jsonlPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != res.Len() {
		t.Fatalf("%d JSONL lines for %d records", got, res.Len())
	}
}
