package membench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
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
// Factory simulates each distinct sweep once, however many replicates,
// strides, element sizes and engines run it. The design's sum kernels
// touch every line of their buffer (strides of 4 to 24 bytes on 64-byte
// lines), so they make one sweep per size; copy and triad have no sweep
// and are simulated per distinct kernel.
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
	const sizes, copyTriadKernels = 3, 3 * 2 * 2 * 2
	if len(memo.results) != len(distinct) {
		t.Fatalf("memo holds %d kernel results, want %d distinct design points", len(memo.results), len(distinct))
	}
	if len(memo.sweeps) != sizes {
		t.Fatalf("memo holds %d sweeps, want one per size (%d)", len(memo.sweeps), sizes)
	}
	if want := sizes + copyTriadKernels; memo.simulations != want {
		t.Fatalf("memo ran %d simulations, want %d (%d sum sweeps + %d copy/triad kernels)",
			memo.simulations, want, sizes, copyTriadKernels)
	}
}

// TestMemColdSimulatesEachSweepOnce runs the end-to-end benchmark's
// mem-cold campaign through one Factory: six sizes at strides 1 and 16 of
// 4-byte elements make twelve kernels but six sweeps, and concurrent
// workers must wait for a sweep in flight rather than simulate it again.
func TestMemColdSimulatesEachSweepOnce(t *testing.T) {
	cfg, d, err := FromSpec(Spec{
		Machine: "i7",
		Sizes:   []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		Strides: []int{1, 16},
		Reps:    2,
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		f := Factory(cfg)
		eng, err := f.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		memo := eng.(*Engine).memo
		if _, err := runner.Run(context.Background(), d, f, runner.Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if memo.simulations != 6 || len(memo.sweeps) != 6 || len(memo.results) != 12 {
			t.Fatalf("workers=%d: %d simulations, %d sweeps, %d results; want 6, 6, 12",
				workers, memo.simulations, len(memo.sweeps), len(memo.results))
		}
	}
}

// failingTrial is a kernel whose simulation fails: a 2-byte buffer holds
// no 4-byte element.
var failingTrial = doe.Trial{Point: doe.Point{FactorSize: "2", FactorElem: "4", FactorNLoops: "3"}}

// TestMemoFailureReachesEveryEngine runs a failing kernel on several
// engines of one Factory at once. Every engine must get the error, none
// may hang on another's failed flight, and nothing may be stored; since
// failures are not shared, every engine ends up simulating it itself.
func TestMemoFailureReachesEveryEngine(t *testing.T) {
	const engines = 8
	f := Factory(Config{Machine: memsim.CoreI7(), Seed: 21})
	es := make([]*Engine, engines)
	for i := range es {
		eng, err := f.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		es[i] = eng.(*Engine)
	}
	start := make(chan struct{})
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for i, e := range es {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = e.Execute(failingTrial)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("engine %d: failing kernel returned no error", i)
		}
	}
	memo := es[0].memo
	if len(memo.results) != 0 || len(memo.sweeps) != 0 || len(memo.inflight) != 0 {
		t.Fatalf("failure left state behind: %d results, %d sweeps, %d in flight",
			len(memo.results), len(memo.sweeps), len(memo.inflight))
	}
	if memo.simulations != engines {
		t.Fatalf("%d simulations, want one per engine (%d)", memo.simulations, engines)
	}
}

// TestMemoWaitersRetryAfterFailure holds a failing simulation in flight
// while other callers arrive for the same kernel: the failure must wake
// them, and each must run its own simulation and get its own error.
func TestMemoWaitersRetryAfterFailure(t *testing.T) {
	const waiters = 4
	memo := newKernelMemo(memsim.CoreI7())
	k := kernelKey{memsim.KernelParams{SizeBytes: 64, Stride: 1, ElemBytes: 4, NLoops: 1}, memsim.StreamCopy}
	errSim := errors.New("simulation failed")
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := memo.load(k, memsim.SweepKey{}, false, func() (*memsim.PassProfile, error) {
			close(started)
			<-release
			return nil, errSim
		})
		leader <- err
	}()
	<-started
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := memo.load(k, memsim.SweepKey{}, false, func() (*memsim.PassProfile, error) {
				return nil, errSim
			})
			errs <- err
		}()
	}
	close(release)
	if err := <-leader; !errors.Is(err, errSim) {
		t.Fatalf("leader: %v, want %v", err, errSim)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errSim) {
			t.Fatalf("waiter: %v, want %v", err, errSim)
		}
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if memo.simulations != 1+waiters || len(memo.results) != 0 || len(memo.inflight) != 0 {
		t.Fatalf("%d simulations, %d results, %d in flight; want %d, 0, 0",
			memo.simulations, len(memo.results), len(memo.inflight), 1+waiters)
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
	res, err := runner.Sequential(context.Background(), memoDesign(t), eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(recordsCSV(t, res))); got != statefulMemoDigest {
		t.Fatalf("stateful campaign records changed: digest %s, want %s", got, statefulMemoDigest)
	}
}

// TestHierarchyBuiltOnFirstSimulation: a new engine holds no cache
// hierarchy, so a planning probe costs none; the engine that simulates a
// kernel builds one, and an engine whose trials the shared memo serves
// never does.
func TestHierarchyBuiltOnFirstSimulation(t *testing.T) {
	factory := Factory(Config{Machine: memsim.CoreI7(), Seed: 3})
	engines := make([]*Engine, 2)
	for i := range engines {
		e, err := factory.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e.(*Engine)
		if engines[i].hierarchy != nil {
			t.Fatalf("engine %d built a hierarchy before its first trial", i)
		}
	}
	point := doe.Point{FactorSize: "65536", FactorStride: "4"}
	for i, e := range engines {
		if _, err := e.Execute(doe.Trial{Seq: i, Point: point}); err != nil {
			t.Fatal(err)
		}
	}
	if engines[0].hierarchy == nil {
		t.Fatal("the simulating engine has no hierarchy")
	}
	if engines[1].hierarchy != nil {
		t.Fatal("an engine served by the memo built a hierarchy")
	}
}
