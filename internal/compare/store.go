package compare

import (
	"fmt"

	"opaquebench/internal/suite"
)

// LoadStore reads every live entry of a suite result store (a cache store
// file, internal/store) and groups the samples by campaign name. More than
// one entry per name (a store that accumulated entries across edited runs)
// is preserved so the comparator can refuse the ambiguity instead of
// silently picking one; the rounds of an adaptive campaign are reassembled
// into one sample. The store is opened read-only, so a comparison never
// mutates the history it judges.
func LoadStore(path string) (map[string][]Sample, error) {
	cache, err := suite.ReadCacheStore(path)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	return loadSamples(cache)
}

// Run is one pinned run of a result store: the run name it was pinned
// under and its campaign samples, grouped exactly as LoadStore groups a
// whole store. Runs are the unit the trend analysis walks.
type Run struct {
	// Name is the pin name (cmd/suite store import -run, or store.Pin).
	Name string
	// Samples maps campaign name to that run's samples.
	Samples map[string][]Sample
}

// LoadStoreRuns loads every pinned run of a result store, in the order the
// runs were first pinned — the store's native notion of history, which the
// trend analysis treats as oldest-to-newest. Each run's samples are built
// from exactly the entries its pin references, so overlapping runs (two
// runs sharing an unchanged campaign's entry, the common case under
// content addressing) each see the full record set.
func LoadStoreRuns(path string) ([]Run, error) {
	cache, err := suite.ReadCacheStore(path)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	st := cache.Backing()
	pins := st.Pins()
	runs := make([]Run, 0, len(pins))
	for _, pin := range pins {
		loaded := make([]loadedEntry, 0, len(pin.Keys))
		for _, key := range pin.Keys {
			entry, err := cache.Load(key)
			if err != nil {
				return nil, fmt.Errorf("compare: run %q: %w", pin.Run, err)
			}
			loaded = append(loaded, loadedEntry{key, entry})
		}
		samples, err := samplesFromEntries(loaded)
		if err != nil {
			return nil, fmt.Errorf("compare: run %q: %w", pin.Run, err)
		}
		runs = append(runs, Run{Name: pin.Run, Samples: samples})
	}
	return runs, nil
}
