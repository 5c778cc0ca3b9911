// Armpaging: the Section IV.4 phenomenon end to end.
//
// The ARM Snowball's 32 KB 4-way L1 has an 8 KB way — two 4 KB pages — so
// the physical page "color" (bit 12) decides which half of the sets a page
// maps to. The OS hands out pages randomly, and malloc/free keeps reusing
// the same draw, so each run of the experiment freezes one random placement:
// buffers between 50% and 100% of L1 thrash for some draws and fit for
// others, and the bandwidth drop point moves between *identical* reruns.
//
// The fix demonstrated here is the paper's: allocate one large block up
// front and start each measurement at a random offset inside it, turning
// the hidden frozen factor into honest per-measurement variability.
//
// Run with: go run ./examples/armpaging
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
	"opaquebench/internal/stats"
)

func run(alloc string, seed uint64, sizes []int) map[int]float64 {
	design, err := doe.FullFactorial(
		membench.Factors(sizes, nil, nil, []int{200}, nil),
		doe.Options{Replicates: 8, Seed: seed, Randomize: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := membench.NewEngine(membench.Config{
		Machine:    memsim.ARMSnowball(),
		Seed:       seed,
		Allocation: alloc,
		PoolPages:  1024,
		ArenaBytes: 2 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), design, eng)
	if err != nil {
		log.Fatal(err)
	}
	out := map[int]float64{}
	for _, g := range core.SummarizeBy(res, membench.FactorSize) {
		out[int(g.X)] = g.Summary.Median
	}
	return out
}

func main() {
	var sizes []int
	for k := 4; k <= 40; k += 4 {
		sizes = append(sizes, k<<10)
	}

	fmt.Println("four identical experiments, malloc/free page reuse (the paper's Figure 12):")
	fmt.Printf("%8s", "size KB")
	for run := 1; run <= 4; run++ {
		fmt.Printf(" %10s", fmt.Sprintf("run %d", run))
	}
	fmt.Println(" (median MB/s)")
	poolRuns := make([]map[int]float64, 4)
	for r := range poolRuns {
		poolRuns[r] = run(membench.AllocPool, uint64(100+r), sizes)
	}
	for _, s := range sizes {
		fmt.Printf("%8d", s>>10)
		for r := range poolRuns {
			fmt.Printf(" %10.0f", poolRuns[r][s])
		}
		fmt.Println()
	}
	fmt.Println("\nthe drop point moves between reruns: each run froze a different random")
	fmt.Println("physical-page draw. Within a run the numbers are eerily stable — the draw")
	fmt.Println("is reused by malloc/free, so repetition cannot reveal it.")

	fmt.Println("\nsame campaign with the arena + random-offset fix:")
	fmt.Printf("%8s", "size KB")
	for run := 1; run <= 4; run++ {
		fmt.Printf(" %10s", fmt.Sprintf("run %d", run))
	}
	fmt.Println(" (median MB/s)")
	arenaRuns := make([]map[int]float64, 4)
	for r := range arenaRuns {
		arenaRuns[r] = run(membench.AllocArena, uint64(200+r), sizes)
	}
	for _, s := range sizes {
		fmt.Printf("%8d", s>>10)
		for r := range arenaRuns {
			fmt.Printf(" %10.0f", arenaRuns[r][s])
		}
		fmt.Println()
	}

	// Quantify cross-run agreement at the critical 24 KB point.
	var pool24, arena24 []float64
	for r := 0; r < 4; r++ {
		pool24 = append(pool24, poolRuns[r][24<<10])
		arena24 = append(arena24, arenaRuns[r][24<<10])
	}
	fmt.Printf("\ncross-run CV at 24 KB: pool-reuse %.3f vs arena %.3f\n",
		stats.CV(pool24), stats.CV(arena24))
	fmt.Println("randomizing the physical placement per measurement makes the experiment")
	fmt.Println("reproducible in distribution — and exposes the paging factor it hid.")
}
