// Quickstart: a minimal white-box memory campaign on the simulated
// Core i7-2600, showing the three methodology stages end to end:
//
//  1. design  — declare factors, replicate, randomize;
//  2. engine  — execute every trial in design order, keep every raw record;
//  3. analysis — offline summaries and a piecewise look at the curve.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/runner"
)

func main() {
	// Stage 1: the experimental design. Buffer sizes around the L1/L2
	// boundaries, 10 replicates, fully randomized order. The kernel uses
	// wide (16-byte) elements with loop unrolling so its demand rate
	// exceeds the L2 interface — Section IV.1 shows the L1 drop is
	// invisible otherwise.
	sizes := []int{8 << 10, 16 << 10, 24 << 10, 32 << 10, 48 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	factors := membench.Factors(sizes, []int{1}, []int{16}, []int{200}, []bool{true})
	design, err := doe.FullFactorial(factors, doe.Options{Replicates: 10, Seed: 7, Randomize: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designed %d measurements (%d combinations x 10 replicates), randomized\n\n",
		design.Size(), design.Combinations())

	// Stage 2: the benchmark engine on the simulated machine.
	engine, err := membench.NewEngine(membench.Config{Machine: memsim.CoreI7(), Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	results, err := runner.Sequential(context.Background(), design, engine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("captured environment:")
	fmt.Println(results.Env.String())

	// Stage 3: offline analysis on the full raw data.
	fmt.Println("median bandwidth by buffer size (stride 1):")
	stride1 := results.Filter(func(r core.RawRecord) bool {
		return r.Point.Get(membench.FactorStride) == "1"
	})
	for _, g := range core.SummarizeBy(stride1, membench.FactorSize) {
		bar := int(g.Summary.Median / 2000)
		fmt.Printf("%8.0f KB | %-40s %8.0f MB/s\n", g.X/1024, stars(bar), g.Summary.Median)
	}
	l1 := memsim.CoreI7().L1().SizeBytes
	fmt.Printf("\nL1 is %d KB: the curve steps down once the working set no longer fits.\n", l1>>10)
}

func stars(n int) string {
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
