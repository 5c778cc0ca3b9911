// Stream: characterize the STREAM kernel family (the ancestor of MAPS and
// MultiMAPS, Section IV) on the simulated Opteron with the white-box
// methodology: the read-only sum kernel, copy, and triad across the memory
// hierarchy, in one randomized campaign.
//
// The write-bearing kernels expose a dimension the paper's L1-READ study
// deliberately set aside: out of cache, every written line costs a
// write-allocate fill AND a later writeback, so copy's useful bandwidth
// trails sum's, with triad in between — visible only because the raw records
// keep the kernel factor attached to every observation.
//
// Run with: go run ./examples/stream
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
	sizes := []int{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
	factors := append(
		membench.Factors(sizes, nil, nil, []int{200}, nil),
		doe.NewFactor(membench.FactorKernel, "sum", "copy", "triad"),
	)
	design, err := doe.FullFactorial(factors, doe.Options{Replicates: 5, Seed: 33, Randomize: true})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := membench.NewEngine(membench.Config{Machine: memsim.Opteron(), Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	results, err := runner.Sequential(context.Background(), design, engine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d raw measurements on %s\n\n", results.Len(), memsim.Opteron().Name)

	fmt.Printf("%10s %12s %12s %12s   (median MB/s of useful traffic)\n", "size", "sum", "copy", "triad")
	for _, size := range sizes {
		fmt.Printf("%9dK", size>>10)
		for _, kernel := range []string{"sum", "copy", "triad"} {
			s, k := size, kernel
			sub := results.Filter(func(r core.RawRecord) bool {
				v, err := r.Point.Int(membench.FactorSize)
				return err == nil && v == s && r.Point.Get(membench.FactorKernel) == k
			})
			groups := core.SummarizeBy(sub, membench.FactorSize)
			fmt.Printf(" %12.0f", groups[0].Summary.Median)
		}
		fmt.Println()
	}
	fmt.Println("\ninside L1 all three kernels are issue-bound and indistinguishable;")
	fmt.Println("out of cache the write-allocate + writeback traffic of copy and triad")
	fmt.Println("costs real interface bandwidth, and the ordering copy < triad < sum appears.")
}
