package suite

import (
	"fmt"
	"os"

	"opaquebench/internal/store"
)

// The store backend keeps the cache contract — identical keys, identical
// entry payload bytes, last write wins — and adds what a directory of files
// cannot: queryable per-entry metadata (suite, campaign, engine, round,
// environment, time of run), named pinned runs with refcount GC, provenance
// chains across adaptive rounds, and a crash-recovery proof per entry (each
// is one checksummed frame in the append-only log). The store treats the
// payload as opaque bytes. Suite runs are byte-identical on either backend
// because both hand the same payload to the same hit path.

// OpenCacheStore opens (creating if needed) a store-backed cache at path —
// a single log file, not a directory.
func OpenCacheStore(path string) (*Cache, error) {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("suite: open cache store: %w", err)
	}
	return &Cache{st: st}, nil
}

// ReadCacheStore opens an existing store-backed cache read-only: no file
// creation, no torn-tail repair, and every Store refuses.
func ReadCacheStore(path string) (*Cache, error) {
	st, err := store.Open(path, store.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("suite: read cache store: %w", err)
	}
	return &Cache{st: st}, nil
}

// NewStoreCache wraps an already-open store as a cache. The caller keeps
// ownership of the store's lifetime (Close on the cache closes it).
func NewStoreCache(st *store.Store) *Cache {
	return &Cache{st: st}
}

// Backing exposes the underlying store of a store-backed cache, nil for a
// directory cache — the hook the CLI's query/pin/gc surface and the
// comparator's run loader use.
func (c *Cache) Backing() *store.Store { return c.st }

// meta derives the store's queryable metadata from an entry head. The
// environment's capture time is the entry's time of run; its descriptor
// fields become the store's flat Env map.
func (h *entryHead) meta() store.Meta {
	m := store.Meta{
		Suite:    h.Suite,
		Campaign: h.Campaign,
		Engine:   h.Engine,
		Round:    h.Round,
		Seed:     h.Seed,
		Parent:   h.Parent,
	}
	if h.Env != nil {
		m.RanAt = h.Env.CapturedAt
		if len(h.Env.Fields) > 0 {
			m.Env = make(map[string]string, len(h.Env.Fields))
			for k, v := range h.Env.Fields {
				m.Env[k] = v
			}
		}
	}
	return m
}

// ImportDirToStore copies every entry of a legacy cache directory into the
// store, preserving the exact payload bytes (the on-disk file is stored
// verbatim, so a replay through the store is byte-identical to one through
// the directory) and deriving the queryable metadata from the decoded
// entry. Existing keys are overwritten — last write wins, matching both
// backends' semantics. It returns the imported keys in directory (sorted
// key) order.
func ImportDirToStore(dir string, st *store.Store) ([]string, error) {
	src, err := ReadCache(dir)
	if err != nil {
		return nil, err
	}
	if src.st != nil {
		return nil, fmt.Errorf("suite: import: %s is a store log, not a cache directory", dir)
	}
	keys, err := src.Keys()
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		data, err := os.ReadFile(src.path(key))
		if err != nil {
			return nil, fmt.Errorf("suite: import %s: %w", key, err)
		}
		e, err := decodeEntry(data)
		if err != nil {
			return nil, fmt.Errorf("suite: import %s: %w", key, err)
		}
		head := e.head()
		if err := st.Put(key, data, head.meta()); err != nil {
			return nil, fmt.Errorf("suite: import %s: %w", key, err)
		}
	}
	return keys, nil
}
