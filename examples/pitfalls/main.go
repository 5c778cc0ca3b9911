// Pitfalls: the opaque benchmarks and the white-box methodology side by
// side on three of the paper's documented failure modes:
//
//   - III.1 — a temporal perturbation fakes a protocol change for NetGauge's
//     ordered online detection; randomization + offline analysis is immune
//     and instead localizes the anomaly in *time*;
//   - IV.2 — under the ondemand governor, an opaque MultiMAPS run silently
//     depends on nloops; the white-box environment capture names the
//     governor, so two contradictory campaigns can be diffed;
//   - IV.3 — mean/stddev-only reporting hides the 5x second mode that raw
//     logs expose immediately.
//
// Run with: go run ./examples/pitfalls
package main

import (
	"context"
	"fmt"
	"log"

	"opaquebench/internal/core"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netsim"
	"opaquebench/internal/opaque"
	"opaquebench/internal/ossim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func main() {
	pitfall1()
	pitfall2()
	pitfall3()
}

// pitfall1: temporal perturbation vs online detection (Section III.1).
func pitfall1() {
	fmt.Println("=== Pitfall III.1: temporal perturbations and online break detection ===")
	perturb := netsim.NewPerturber(4, netsim.Window{Start: 0.004, End: 0.02})
	net, err := netsim.New(netsim.MyrinetGM(), 21, perturb)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := opaque.RunNetGauge(net, netsim.OpPingPong, 1024, 65536, 512, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the Myrinet/GM profile has NO protocol changes, yet the opaque ordered\n")
	fmt.Printf("sweep reports %d: %v\n", len(rep.Breaks), rep.Breaks)
	fmt.Println("the perturbation window hit consecutive sizes and looked like a new regime.")
	fmt.Println("(the white-box equivalent is shown by `go run ./cmd/figures -id pitfall-III.1`)")
	fmt.Println()
}

// pitfall2: the nloops/DVFS dependency (Section IV.2).
func pitfall2() {
	fmt.Println("=== Pitfall IV.2: ondemand DVFS makes nloops matter ===")
	for _, nloops := range []int{20, 20000} {
		eng, err := membench.NewEngine(membench.Config{
			Machine:           memsim.CoreI7(),
			Seed:              22,
			Governor:          cpusim.Ondemand{},
			SamplingPeriodSec: 0.01,
			GapSec:            0.03,
		})
		if err != nil {
			log.Fatal(err)
		}
		var vals []float64
		for rep := 0; rep < 20; rep++ {
			rec, err := eng.Execute(doe.Trial{Point: doe.Point{
				membench.FactorSize:   "16384",
				membench.FactorNLoops: doe.Level(fmt.Sprint(nloops)),
			}, Rep: rep})
			if err != nil {
				log.Fatal(err)
			}
			vals = append(vals, rec.Value)
		}
		fmt.Printf("nloops=%6d: median bandwidth %8.0f MB/s (CV %.3f)\n",
			nloops, stats.Median(vals), stats.CV(vals))
	}
	fmt.Println("nloops 'should not have any influence on the final bandwidth' — but the")
	fmt.Println("governor ramps up only if the run outlives its sampling period. The white-box")
	fmt.Println("environment capture records governor=ondemand, so the contradiction is diagnosable.")
	fmt.Println()
}

// pitfall3: aggregates hide the second mode (Section IV.3).
func pitfall3() {
	fmt.Println("=== Pitfall IV.3: mean/stddev hide the 5x second mode ===")
	cfg := membench.Config{
		Machine: memsim.ARMSnowball(),
		Seed:    27,
		Sched: ossim.Config{
			Policy:          ossim.PolicyRT,
			DaemonPeriodSec: 8,
			DaemonDuty:      0.25,
		},
		GapSec: 0.1,
	}
	design, err := doe.FullFactorial(
		membench.Factors([]int{8 << 10, 16 << 10, 24 << 10}, nil, nil, []int{200}, nil),
		doe.Options{Replicates: 30, Seed: 27, Randomize: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := membench.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		log.Fatal(err)
	}
	vals := res.Values()
	fmt.Printf("opaque view:    mean=%.0f MB/s stddev=%.0f — 'worse and noisier than usual'\n",
		stats.Mean(vals), stats.Stddev(vals))
	d, err := core.DiagnoseModes(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("white-box view: %s", d.String())
	fmt.Println("the raw log shows a second mode, ~5x lower, contiguous in sequence order:")
	fmt.Println("an external process co-scheduled on the pinned core under the RT policy.")
}
