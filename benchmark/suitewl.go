package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"opaquebench/internal/suite"
)

// study is the generated input of a workload driven through suite.Run.
type study struct {
	campaigns []campaign
	// fill makes set-up run the study once with its base seeds, so that
	// ops find those campaigns in the cache.
	fill bool
	// edit, when > 0, makes op j re-seed only campaign j mod edit and keep
	// every other campaign at its base seed; when 0 every campaign gets a
	// fresh seed every op.
	edit int
}

// seeds returns op j's campaign seeds and which of them are fresh.
func (st study) seeds(e *env, j int) ([]uint64, []bool) {
	base, op := e.opSeed(-1, 0), e.opSeed(0, j)
	seeds := make([]uint64, len(st.campaigns))
	fresh := make([]bool, len(st.campaigns))
	for c := range st.campaigns {
		fresh[c] = st.edit == 0 || c == j%st.edit
		if fresh[c] {
			seeds[c] = mix(op, uint64(c))
		} else {
			seeds[c] = mix(base, uint64(c))
		}
	}
	return seeds, fresh
}

func (st study) baseSeeds(e *env) []uint64 {
	base := e.opSeed(-1, 0)
	seeds := make([]uint64, len(st.campaigns))
	for c := range seeds {
		seeds[c] = mix(base, uint64(c))
	}
	return seeds
}

// suiteInstance runs each op as one suite.Run against a store-backed cache,
// from a single goroutine.
type suiteInstance struct {
	e      *env
	st     study
	cache  *suite.Cache
	opDir  string
	filled []digest // the fill run's output digests, by campaign
}

func startSuite(st study) func(context.Context, *env) (instance, error) {
	return func(ctx context.Context, e *env) (instance, error) {
		cache, err := suite.OpenCacheStore(filepath.Join(e.dir, "cache.log"))
		if err != nil {
			return nil, err
		}
		s := &suiteInstance{e: e, st: st, cache: cache, opDir: filepath.Join(e.dir, "op")}
		if err := s.setup(ctx); err != nil {
			cache.Close()
			return nil, err
		}
		return s, nil
	}
}

func (s *suiteInstance) setup(ctx context.Context) error {
	if s.st.fill {
		spec, _, err := studySpec(s.e.name, s.st.campaigns, s.st.baseSeeds(s.e), s.e.w, s.e.trace)
		if err != nil {
			return err
		}
		if _, err := suite.Run(ctx, spec, s.options()); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		if s.filled, err = outputDigests(s.opDir, spec); err != nil {
			return err
		}
	}
	if w := s.op(ctx, -1, -1, 0, 0); w.Err != "" {
		return fmt.Errorf("warm-up op: %s", w.Err)
	}
	return nil
}

func (s *suiteInstance) options() suite.Options {
	return suite.Options{Cache: s.cache, Workers: s.e.w, BaseDir: s.opDir}
}

func (s *suiteInstance) clients() int { return 1 }

func (s *suiteInstance) op(ctx context.Context, id, _, client, j int) opSample {
	smp := opSample{ID: id, Client: client, Index: j, Seed: s.e.opSeed(0, j)}
	seeds, _ := s.st.seeds(s.e, j)
	spec, data, err := studySpec(s.e.name, s.st.campaigns, seeds, s.e.w, s.e.trace)
	if err != nil {
		smp.fail("spec: %v", err)
		return smp
	}
	smp.spec = data
	smp.start = time.Now()
	res, err := suite.Run(ctx, spec, s.options())
	smp.end = time.Now()
	if err != nil {
		smp.fail("%v", err)
		return smp
	}
	ds, err := outputDigests(s.opDir, spec)
	if err != nil {
		smp.fail("outputs: %v", err)
		return smp
	}
	smp.Digest = opDigest(ds)
	for i, cr := range res.Campaigns {
		co := campaignOutcome{name: cr.Name, seed: seeds[i], hit: cr.Hit, trials: cr.Trials, digest: ds[i], keys: []string{cr.Key}}
		if len(cr.Rounds) > 0 {
			co.adaptive, co.keys = true, nil
			for _, r := range cr.Rounds {
				co.keys = append(co.keys, r.Key)
			}
		}
		smp.camps = append(smp.camps, co)
		smp.Trials += cr.Trials
		smp.Records += cr.Records
		if cr.Hit {
			smp.Hits++
		}
	}
	smp.Campaigns = len(res.Campaigns)
	return smp
}

// finish checks outputs. In a warm study every campaign kept at its base
// seed must be a cache hit replaying the fill run's bytes. Every 10th op
// (1, 11, 21, ...) re-runs its fresh campaigns the plainest way and must
// match them byte for byte; in a traced run that also proves the tracing
// wrapper changed no output.
func (s *suiteInstance) finish(ctx context.Context, samples []opSample) ([]string, error) {
	refDir := filepath.Join(s.e.dir, "ref")
	for i := range samples {
		smp := &samples[i]
		if smp.Err != "" {
			continue
		}
		seeds, fresh := s.st.seeds(s.e, smp.Index)
		var camps []campaign
		var refSeeds []uint64
		var idx []int
		for c, co := range smp.camps {
			if fresh[c] {
				camps, refSeeds, idx = append(camps, s.st.campaigns[c]), append(refSeeds, seeds[c]), append(idx, c)
				continue
			}
			if !co.hit {
				smp.fail("campaign %s: base seed missed the cache", co.name)
			} else if co.digest != s.filled[c] {
				smp.fail("campaign %s: replayed bytes differ from the fill run", co.name)
			}
		}
		if smp.Index%10 != 1 {
			continue
		}
		ref, err := referenceRun(ctx, s.e.name, camps, refSeeds, refDir)
		if err != nil {
			return nil, err
		}
		for k, c := range idx {
			if ref[k] != smp.camps[c].digest {
				smp.fail("campaign %s: output differs from a one-worker uncached run", smp.camps[c].name)
			}
		}
	}
	return failures(samples), nil
}

func (s *suiteInstance) probeCache() (*suite.Cache, error) { return s.cache, nil }

func (s *suiteInstance) logSize() int64 { return s.cache.Backing().LogSize() }

func (s *suiteInstance) close() error { return s.cache.Close() }

// failures lists the failed samples' errors.
func failures(samples []opSample) []string {
	var out []string
	for _, s := range samples {
		if s.Err != "" {
			out = append(out, fmt.Sprintf("op %d (client %d, index %d): %s", s.ID, s.Client, s.Index, s.Err))
		}
	}
	return out
}
