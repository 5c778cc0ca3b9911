package core

import (
	"bytes"
	"strings"
	"testing"

	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
)

// fakeRecord returns value = size*2 + rep, annotated.
func fakeRecord(t *testing.T, tr doe.Trial) RawRecord {
	t.Helper()
	size, err := tr.Point.Int("size")
	if err != nil {
		t.Fatal(err)
	}
	rec := RawRecord{Seq: tr.Seq, Rep: tr.Rep, Point: tr.Point,
		Value: float64(size*2 + tr.Rep), Seconds: 0.001, At: float64(tr.Seq + 1)}
	rec.Annotate("note", "ok")
	return rec
}

func testDesign(t *testing.T, reps int) *doe.Design {
	t.Helper()
	d, err := doe.FullFactorial([]doe.Factor{
		doe.IntFactor("size", 10, 20, 30),
		doe.IntFactor("stride", 1, 2),
	}, doe.Options{Replicates: reps, Seed: 42, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runCampaign builds a result set with one fake record per trial, in design
// order, the shape the runner logs.
func runCampaign(t *testing.T, reps int) *Results {
	t.Helper()
	d := testDesign(t, reps)
	res := &Results{Design: d, Env: meta.New().Set("engine", "fake")}
	for _, tr := range d.Trials {
		res.Records = append(res.Records, fakeRecord(t, tr))
	}
	return res
}

func TestResultsGroupBy(t *testing.T) {
	res := runCampaign(t, 2)
	groups := res.GroupBy("size")
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	// size 10 -> values 20 + rep for both strides and 2 reps = 4 records.
	if len(groups["10"]) != 4 {
		t.Fatalf("size-10 group = %d records", len(groups["10"]))
	}
}

func TestResultsXY(t *testing.T) {
	res := runCampaign(t, 1)
	xs, ys := res.XY("size")
	if len(xs) != res.Len() || len(ys) != res.Len() {
		t.Fatal("XY dropped records")
	}
}

func TestResultsFilter(t *testing.T) {
	res := runCampaign(t, 1)
	sub := res.Filter(func(r RawRecord) bool { return r.Point.Get("stride") == "1" })
	if sub.Len() != 3 {
		t.Fatalf("filtered = %d, want 3", sub.Len())
	}
}

func TestResultsValuesOrder(t *testing.T) {
	res := runCampaign(t, 1)
	vals := res.Values()
	if len(vals) != res.Len() {
		t.Fatal("values length")
	}
	for i, rec := range res.Records {
		if vals[i] != rec.Value {
			t.Fatal("values out of order")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	res := runCampaign(t, 2)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != res.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), res.Len())
	}
	for i := range res.Records {
		a, b := res.Records[i], got.Records[i]
		if a.Seq != b.Seq || a.Value != b.Value || a.Point.Key() != b.Point.Key() {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if b.Extra["note"] != "ok" {
			t.Fatalf("extras lost: %+v", b.Extra)
		}
	}
}

func TestReadCSVBadInput(t *testing.T) {
	cases := []string{
		"",
		"a,b,c\n",
		"seq,rep,value,seconds,at\nx,0,1,1,1\n",
		"seq,rep,value,seconds,at\n0,0,notanumber,1,1\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("want error for %q", c)
		}
	}
}

func TestAnnotateNilMap(t *testing.T) {
	var r RawRecord
	r.Annotate("k", "v")
	if r.Extra["k"] != "v" {
		t.Fatal("annotate on zero record failed")
	}
}
