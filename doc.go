// Package opaquebench is a Go reproduction of Stanisic, Schnorr, Degomme,
// Heinrich, Legrand and Videau, "Characterizing the Performance of Modern
// Architectures Through Opaque Benchmarks: Pitfalls Learned the Hard Way"
// (IPDPS 2017 RepPar workshop, hal-01470399).
//
// The repository builds, from scratch and on the standard library only:
//
//   - the paper's contribution — a three-stage white-box benchmarking
//     methodology: experimental design (internal/doe), engine orchestration
//     and raw-record logging (internal/core) with environment capture
//     (internal/meta), and offline statistical analysis (internal/stats:
//     descriptive statistics, LOESS, segmented regression, outlier/mode/
//     effect diagnostics, resampling);
//   - every substrate the paper's experiments ran on, as deterministic
//     seedable simulators: the Figure 5 machines with set-associative
//     physically-indexed caches and page allocation (internal/memsim), DVFS
//     governors over virtual time (internal/cpusim), OS scheduling and
//     interference (internal/ossim), LogGP-family piecewise network models
//     with protocol regimes and planted quirks (internal/netsim), a
//     protocol-level message-passing simulator with ring and binomial-tree
//     collectives on top of them (internal/mpisim), and NUMA topologies
//     with first-touch/interleave page placement, capacity spill and page
//     migration (internal/numasim);
//   - the benchmark engines that drive the substrate through designed
//     campaigns: memory (internal/membench), network point-to-point
//     (internal/netbench), CPU/DVFS/interference
//     (internal/cpubench), NUMA page placement across the first-touch
//     spill crossover (internal/numabench), and MPI collectives across
//     the allreduce tree/ring switchover (internal/collbench);
//   - an engine registry (internal/engine) giving the orchestration layers
//     one uniform handle per engine — strict spec decoding, factory and
//     design construction, metric direction, adaptive-refinement hooks —
//     plus a conformance battery (internal/engine/enginetest) that every
//     registered engine must pass, with negative tests proving each check
//     can fail;
//   - the criticized opaque benchmarks — PMB, MultiMAPS, NetGauge's online
//     detector, PLogP's adaptive probe (internal/opaque);
//   - a generator per paper figure/table (internal/figures) with ASCII
//     chart rendering (internal/plot), exercised by the benchmarks in
//     bench_test.go and the cmd/figures tool;
//   - the one campaign executor (internal/runner): inline on one engine at
//     one worker, or sharded across trial-indexed engine instances, with
//     records streamed to CSV/JSONL sinks in design order and a sharded run
//     record-for-record identical to a one-worker run;
//   - a declarative suite orchestrator (internal/suite) that runs whole
//     studies of campaigns across the registered engines from one JSON spec,
//     concurrently under a global worker budget, with a content-addressed
//     result cache whose replay is byte-identical to a cold run;
//   - an embedded result store (internal/store) that is that cache: one
//     append-only checksummed frame log plus an advisory sidecar index,
//     recovering to the longest valid frame prefix after any crash, with
//     pinned named runs, refcount garbage collection, atomic compaction,
//     metadata queries, adaptive provenance chains and one writer process
//     per store;
//   - a campaign service (internal/serve, cmd/served) that keeps the
//     orchestrator resident behind an HTTP/JSON API: spec-hash deduped
//     job submission, prioritized FIFO scheduling over one shared worker
//     budget and cache, NDJSON event streaming, graceful drain;
//   - an adaptive campaign planner (internal/adapt) that closes the loop
//     round by round: extra replicates where bootstrap CIs are widest,
//     grid refinement inside detected breakpoint brackets, under hard
//     budget and convergence stop rules, every round cached and
//     reproducible byte for byte;
//   - a differential campaign comparator (internal/compare) that pairs two
//     suite runs and gates each campaign statistically — bootstrap
//     confidence intervals on the median shift of the raw records, with
//     mode-count and breakpoint-drift diagnosis flags — emitting
//     deterministic verdict files and markdown reports;
//   - the downstream consumers the methodology feeds: human-readable
//     campaign reports (internal/report) and a PMaC-style performance
//     predictor with trace replay (internal/predict);
//   - shared deterministic-randomness utilities — seed derivation, split
//     streams, log-uniform sampling (internal/xrand).
//
// The cmd tools compose the stages through file artifacts: cmd/designgen
// (stage 1), cmd/membench, cmd/netbench and cmd/cpubench (stage 2, with
// -workers for sharded execution and -jsonl for a second output),
// cmd/suite (whole cached studies of stage-2 campaigns, with adaptive
// multi-round campaigns, a plan subcommand for their schedules, -baseline
// as a regression gate against a prior run, and -cache-store/-run plus the
// store subcommands for pinned run history in the cache store),
// cmd/compare (the standalone differential gate over two cache stores, with
// -trend gating a store's run history on monotone median drift),
// cmd/analyze (stage 3), and cmd/figures (end-to-end reproductions).
//
// See README.md for a quickstart and package map, DESIGN.md for the system
// inventory and the per-experiment index, and EXPERIMENTS.md for the
// paper-vs-measured record.
package opaquebench
