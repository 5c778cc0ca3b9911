package suite

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"opaquebench/internal/store"
)

// OpenCacheStore opens (creating if needed) the cache's store at path — a
// single log file, not a directory. The open takes the store's writer
// lock, so a second read-write open of the same path fails until this one
// is closed.
func OpenCacheStore(path string) (*Cache, error) {
	if err := refuseDir(path); err != nil {
		return nil, err
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("suite: open cache store: %w", err)
	}
	return &Cache{st: st}, nil
}

// ReadCacheStore opens an existing cache store read-only: no file creation,
// no torn-tail repair, no lock, and every Store refuses. A missing path is
// an error, not an empty cache: a comparison against a mistyped path should
// fail loudly.
func ReadCacheStore(path string) (*Cache, error) {
	if err := refuseDir(path); err != nil {
		return nil, err
	}
	st, err := store.Open(path, store.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("suite: read cache store: %w", err)
	}
	return &Cache{st: st}, nil
}

// refuseDir names the migration when a path that should be a store file
// is a legacy cache directory.
func refuseDir(path string) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("suite: %s is a legacy cache directory, not a store file; import it with: suite store import <store> %s", path, path)
	}
	return nil
}

// Backing exposes the cache's underlying store — the hook the CLI's
// query/pin/gc surface and the comparator's run loader use.
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

// ImportDirToStore copies every entry of a legacy cache directory — one
// <key>.json file per entry, in either payload format — into the store. It
// is the only code that knows that layout. Each file's bytes are stored
// verbatim, so a replay through the store is byte-identical to one through
// the directory; the queryable metadata is derived from the decoded entry.
// In-flight temporary files (.tmp) are skipped and existing keys are
// overwritten (last write wins). It returns the imported keys, sorted.
func ImportDirToStore(dir string, st *store.Store) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("suite: import: %w", err)
	}
	var keys []string
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(keys)
	for _, key := range keys {
		data, err := os.ReadFile(filepath.Join(dir, key+".json"))
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
