// Package core implements the paper's primary contribution (Section V): a
// three-stage white-box benchmarking methodology with a strict separation of
// concerns between
//
//  1. the experimental design (package doe) — factors, randomization,
//     replication, materialized as a schedule;
//  2. the benchmark running engine — a dumb executor (package runner,
//     driving this package's Engine) that takes measurements in exactly the
//     designed order and logs every raw observation together with
//     environment metadata (package meta);
//  3. the offline statistical analysis (package stats) — performed only
//     after the campaign, on the full raw data.
//
// Nothing in this package aggregates on the fly; that is the point. The
// opaque benchmarks of package opaque exist to demonstrate what goes wrong
// when stages are fused and raw data is discarded.
package core

import (
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
)

// RawRecord is one raw measurement, the unit the methodology refuses to
// discard. Value is the primary metric (bandwidth in MB/s for memory
// campaigns, duration in seconds for network campaigns).
type RawRecord struct {
	// Seq is the execution-order index (the x-axis of Figure 11 right).
	Seq int
	// Rep is the replicate number of the factor combination.
	Rep int
	// Point is the factor combination measured.
	Point doe.Point
	// Value is the primary metric.
	Value float64
	// Seconds is the raw measured duration.
	Seconds float64
	// At is the virtual time at which the measurement started.
	At float64
	// Extra carries engine-specific annotations (binding resource,
	// frequency, ground-truth perturbation flags, ...).
	Extra map[string]string
}

// Annotate sets an extra key, allocating the map on first use.
func (r *RawRecord) Annotate(key, value string) {
	if r.Extra == nil {
		r.Extra = make(map[string]string)
	}
	r.Extra[key] = value
}

// Engine is the second methodology stage: it executes exactly one trial and
// reports the raw measurement. Engines must perform no aggregation and no
// reordering; the design dictates the schedule.
type Engine interface {
	// Execute performs the trial's measurement.
	Execute(t doe.Trial) (RawRecord, error)
	// Environment captures the engine's execution environment for the
	// campaign metadata.
	Environment() *meta.Environment
}

// EngineFactory creates independent engine instances. The runner asks for one engine per worker, because simulator engines
// carry per-campaign substrate state (caches, clocks, allocators) that must
// not be shared between concurrently executing trials.
//
// Engines produced by a factory are expected to be trial-indexed: every
// stochastic and temporal quantity of a trial's record must derive from the
// campaign seed and the trial's Seq alone, never from which trials ran
// before it on the same engine. That property is what makes a sharded
// campaign's output record-for-record identical to a one-worker run (see
// package runner, the executor).
type EngineFactory interface {
	// NewEngine returns a fresh, independent engine.
	NewEngine() (Engine, error)
}

// EngineFactoryFunc adapts a function to the EngineFactory interface.
type EngineFactoryFunc func() (Engine, error)

// NewEngine implements EngineFactory.
func (f EngineFactoryFunc) NewEngine() (Engine, error) { return f() }

// Results is the full raw output of a campaign: every record, in execution
// order, plus the captured environment.
type Results struct {
	Design  *doe.Design
	Records []RawRecord
	Env     *meta.Environment
}

// Len returns the number of records.
func (r *Results) Len() int { return len(r.Records) }

// Values returns the primary metric of every record in execution order.
func (r *Results) Values() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Value
	}
	return out
}

// Filter returns the records satisfying keep, preserving order.
func (r *Results) Filter(keep func(RawRecord) bool) *Results {
	out := &Results{Design: r.Design, Env: r.Env}
	for _, rec := range r.Records {
		if keep(rec) {
			out.Records = append(out.Records, rec)
		}
	}
	return out
}

// GroupBy groups primary-metric values by the level of one factor.
func (r *Results) GroupBy(factor string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, rec := range r.Records {
		k := rec.Point.Get(factor)
		out[k] = append(out[k], rec.Value)
	}
	return out
}

// XY extracts (numeric factor level, value) pairs for regression, skipping
// records whose level does not parse.
func (r *Results) XY(factor string) (xs, ys []float64) {
	for _, rec := range r.Records {
		x, err := rec.Point.Float(factor)
		if err != nil {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, rec.Value)
	}
	return xs, ys
}
