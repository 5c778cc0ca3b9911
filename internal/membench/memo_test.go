package membench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/memsim"
	"opaquebench/internal/runner"
)

// memoDesign is a randomized, replicated design over all three STREAM
// kernels, sizes inside L1, L2 and L3, a line-dividing and a
// non-dividing stride: every design point recurs four times.
func memoDesign(t *testing.T) *doe.Design {
	t.Helper()
	factors := append(Factors([]int{4 << 10, 48 << 10, 300 << 10}, []int{1, 3}, []int{4, 8}, []int{6}, nil),
		doe.NewFactor(FactorKernel, "sum", "copy", "triad"))
	d, err := doe.FullFactorial(factors, doe.Options{Replicates: 4, Seed: 11, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func recordsCSV(t *testing.T, res *core.Results) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFactoryMemoMatchesFreshEngines requires a campaign run through one
// Factory, whose engines share a kernel memo, to be byte-identical at
// every worker count to running each trial on a brand-new indexed engine
// that has simulated nothing before.
func TestFactoryMemoMatchesFreshEngines(t *testing.T) {
	cfg := Config{Machine: memsim.CoreI7(), Seed: 21}
	d := memoDesign(t)

	ref := &core.Results{Design: d, Records: make([]core.RawRecord, d.Size())}
	for i, tr := range d.Trials {
		cfg := cfg
		cfg.Indexed = true
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := eng.Execute(tr)
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq, rec.Rep = tr.Seq, tr.Rep
		ref.Records[i] = rec
	}
	want := recordsCSV(t, ref)

	for _, workers := range []int{1, 4, 8} {
		res, err := runner.Run(context.Background(), d, Factory(cfg), runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsCSV(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: memoized campaign differs from fresh per-trial engines", workers)
		}
	}
}

// TestMemoSkipsRepeatedKernels checks the memo is actually consulted: one
// Factory simulates each distinct kernel once, however many replicates
// and engines run it.
func TestMemoSkipsRepeatedKernels(t *testing.T) {
	d := memoDesign(t)
	f := Factory(Config{Machine: memsim.CoreI7(), Seed: 21})
	var memo *kernelMemo
	for w := 0; w < 2; w++ {
		eng, err := f.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		e := eng.(*Engine)
		if memo != nil && e.memo != memo {
			t.Fatal("engines of one Factory do not share a memo")
		}
		memo = e.memo
		for _, tr := range d.Trials {
			if _, err := e.Execute(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	distinct := map[string]bool{}
	for _, tr := range d.Trials {
		distinct[tr.Point.Key()] = true
	}
	if want := len(distinct); len(memo.results) != want {
		t.Fatalf("memo holds %d kernels, want %d distinct design points", len(memo.results), want)
	}
}

// statefulMemoDigest is the SHA-256 of the stateful campaign below, as
// recorded before indexed engines gained a kernel memo. A stateful
// engine's hierarchy carries history, so a replicate does not repeat its
// predecessor's kernel result; reusing one would change these bytes.
const statefulMemoDigest = "7fb4df4d0ca540b367d4101b032fe09f60207651593dc11ce6f4d69f477e3c23"

func TestStatefulCampaignBypassesMemo(t *testing.T) {
	eng, err := NewEngine(Config{Machine: memsim.CoreI7(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Campaign{Design: memoDesign(t), Engine: eng}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(recordsCSV(t, res))); got != statefulMemoDigest {
		t.Fatalf("stateful campaign records changed: digest %s, want %s", got, statefulMemoDigest)
	}
}
