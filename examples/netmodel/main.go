// Netmodel: characterize the simulated Grid'5000 Taurus cluster and
// instantiate a piecewise LogGP model — the Section V.A workflow.
//
// The campaign uses log-uniform random message sizes (Equation 1 of the
// paper) in randomized order, measures the three operations (asynchronous
// send, blocking receive, ping-pong), keeps every raw observation, and then
// fits per-regime lines between analyst-provided breakpoints. A neutral
// segmented search cross-checks the analyst's breakpoints against the data.
//
// Run with: go run ./examples/netmodel
package main

import (
	"context"
	"fmt"
	"log"

	"opaquebench/internal/core"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/runner"
	"opaquebench/internal/stats"
)

func main() {
	profile := netsim.Taurus()

	design, err := netbench.Design(11, 300, 16, 2<<20, 4, nil, true)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := netbench.NewEngine(netbench.Config{Profile: profile, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	results, err := runner.Sequential(context.Background(), design, engine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d raw measurements on %s\n\n", results.Len(), profile.Name)

	// A neutral look first: how many breakpoints does the data itself
	// support on the ping-pong curve?
	pp := results.Filter(func(r core.RawRecord) bool {
		return r.Point.Get(netbench.FactorOp) == string(netsim.OpPingPong)
	})
	xs, ys := pp.XY(netbench.FactorSize)
	auto, err := stats.SelectSegmentedRelative(xs, ys, 4, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("neutral segmented search suggests breakpoints at %v\n", auto.Breaks)
	fmt.Printf("(planted regime boundaries: %v)\n\n", profile.Breakpoints())

	// The supervised fit with the analyst's breakpoints.
	model, err := netbench.FitLogGP(results, profile.Breakpoints())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("piecewise LogGP instantiation:")
	fmt.Print(model.String())

	// The variability structure the aggregates would have hidden.
	fmt.Println("\nreceive-overhead coefficient of variation by size decile:")
	for d, cv := range netbench.VariabilityBySizeDecile(results, netsim.OpRecv) {
		fmt.Printf("  decile %2d: %.3f\n", d+1, cv)
	}
	fmt.Println("\nthe medium-size deciles are far noisier: the detached-mode receive path")
	fmt.Println("(Figure 4's blue band). A mean-only benchmark would never show this.")
}
