// Package store is the embedded result store behind the suite's
// content-addressed cache: one append-only record log plus a sidecar index,
// stdlib only. Every record is a self-checking frame (sha256 over the whole
// frame, lengths and type included), so the store can never surface torn or
// reordered bytes: a reader either gets the exact bytes a writer appended or
// a clean error, and opening after a crash recovers to the longest valid
// frame prefix of the log.
//
// On top of the log the store keeps the state a fleet of benchmark
// campaigns needs from its history:
//
//   - entries: opaque payloads addressed by key (last append wins), each
//     carrying queryable metadata — suite, campaign, engine, adaptive
//     round, seed, environment descriptors, time of run — and a provenance
//     link to the parent round;
//   - pins: named runs holding sets of keys alive; a key's refcount is the
//     number of runs pinning it;
//   - garbage collection: Unpin plus GC reclaims every entry that no run
//     pins and no pinned entry's round chain references (tombstone frames;
//     the bytes are dropped at the next Compact);
//   - compaction: live frames are rewritten into a fresh log atomically
//     (write-temp + rename), so an interrupted compaction leaves the old
//     log fully readable;
//   - one writer: a read-write open locks the log, so a second writer
//     process fails at Open instead of corrupting the first one's frames.
//
// The sidecar index (path + ".idx") is advisory: it memoizes the scan so
// reopening a large store is cheap, and it is rebuilt from the log whenever
// it is missing, unparsable, or stale against the log's size and tail
// checksum. The log alone is always sufficient.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// ErrNotFound reports a key with no live entry.
var ErrNotFound = errors.New("store: entry not found")

// Meta is one entry's queryable metadata, carried in the entry frame beside
// the payload.
type Meta struct {
	// Key is the entry's address (the campaign's content-addressed cache
	// key, for suite-cache entries).
	Key string `json:"key"`
	// Suite, Campaign and Engine identify what produced the payload.
	Suite    string `json:"suite,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	Engine   string `json:"engine,omitempty"`
	// Round is the 1-based adaptive round index; 0 for static campaigns.
	Round int `json:"round,omitempty"`
	// Seed is the campaign seed.
	Seed uint64 `json:"seed,omitempty"`
	// Parent is the cache key of the previous adaptive round's entry — the
	// provenance link Chain follows; empty for round seeds and static
	// campaigns.
	Parent string `json:"parent,omitempty"`
	// Env holds environment descriptors (machine, governor, toolchain …)
	// captured with the run, the surface Query.Env matches against.
	Env map[string]string `json:"env,omitempty"`
	// RanAt is the time of run — when the records were measured; the
	// zero time when the producer recorded none.
	RanAt time.Time `json:"ran_at,omitzero"`
	// StoredAt is when the entry was appended to this store.
	StoredAt time.Time `json:"stored_at"`
	// Size is the payload length in bytes.
	Size int64 `json:"size"`
}

// entryRef locates one live entry's frame inside the log.
type entryRef struct {
	info frameInfo
	meta Meta
}

// Options tunes Open.
type Options struct {
	// ReadOnly opens the log without write access: no header creation, no
	// torn-tail truncation (a torn tail is simply ignored), no index
	// rewrite, and every mutating method fails.
	ReadOnly bool
	// Now is the clock Put stamps StoredAt with; nil means time.Now. Tests
	// inject a fixed clock to make metadata deterministic.
	Now func() time.Time
}

// Store is an open result store. All methods are safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	f    *os.File
	path string
	ro   bool
	now  func() time.Time
	// broken latches the first append failure whose cleanup (truncating
	// back to the valid prefix) also failed: past that point the in-memory
	// state and the log may disagree, so every mutation refuses.
	broken error

	size    int64               // end of the valid frame prefix
	entries map[string]entryRef // live entries by key
	order   []string            // live keys in frame-offset order
	pins    map[string][]string // run → pinned keys (sorted)
	pinSeq  []string            // runs in first-pin order
}

// Open opens (creating, unless ReadOnly) the store log at path. A log with
// a torn tail — a crashed writer's partial frame — is recovered to its
// longest valid frame prefix: read-write opens truncate the tail away,
// read-only opens ignore it. The sidecar index is consulted first and
// rebuilt from the log when missing or stale. A read-write open takes an
// exclusive lock on the log until Close, so a store has one writer at a
// time and a second read-write Open fails; read-only opens take no lock.
func Open(path string, opts Options) (*Store, error) {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{
		path:    path,
		ro:      opts.ReadOnly,
		now:     now,
		entries: map[string]entryRef{},
		pins:    map[string][]string{},
	}
	flag := os.O_RDWR | os.O_CREATE
	if opts.ReadOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if !opts.ReadOnly {
		if err := lockLog(f, path); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.f = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover brings the in-memory state up from disk: header check (new files
// get one written), index load or full log scan, and torn-tail truncation
// on read-write opens.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		if s.ro {
			s.size = 0
			return nil // an empty file is an empty store
		}
		if _, err := s.f.Write([]byte(logMagic)); err != nil {
			return fmt.Errorf("store: write header: %w", err)
		}
		s.size = int64(logHeader)
		return nil
	}
	head := make([]byte, min(size, int64(logHeader)))
	if _, err := s.f.ReadAt(head, 0); err != nil {
		return fmt.Errorf("store: read header: %w", err)
	}
	if string(head) != logMagic[:len(head)] {
		return fmt.Errorf("store: %s is not a store log (bad header)", s.path)
	}
	if size < int64(logHeader) {
		// A crash while the header itself was being written: the file is a
		// strict prefix of the magic, so it holds no frames. Recover it to
		// an empty store (read-only opens keep the prefix untouched).
		if s.ro {
			s.size = size
			return nil
		}
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: recover header: %w", err)
		}
		if _, err := s.f.WriteAt([]byte(logMagic), 0); err != nil {
			return fmt.Errorf("store: recover header: %w", err)
		}
		s.size = int64(logHeader)
		return nil
	}

	if s.loadIndex(size) {
		return nil
	}
	if err := s.scan(size); err != nil {
		return err
	}
	if !s.ro {
		if s.size < size {
			// Torn tail: a crashed writer's partial frame. Drop it so new
			// appends extend the valid prefix instead of burying bytes
			// after garbage.
			if err := s.f.Truncate(s.size); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		s.writeIndex() // best-effort memoization of the scan
	}
	return nil
}

// scan replays the whole log from disk, stopping at the first frame that
// does not verify. It is the ground truth the index memoizes.
func (s *Store) scan(size int64) error {
	buf := make([]byte, size)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	s.entries = map[string]entryRef{}
	s.order = nil
	s.pins = map[string][]string{}
	s.pinSeq = nil
	off := int64(logHeader)
	for off < size {
		info, ok := decodeFrame(buf, off)
		if !ok {
			break // torn or corrupt: the valid prefix ends here
		}
		meta := buf[info.metaOff():info.bodyOff()]
		if !s.apply(info, meta) {
			break // intact frame, unparsable metadata: treat as corrupt
		}
		off = info.end()
	}
	s.size = off
	return nil
}

// apply folds one verified frame into the in-memory state. It reports
// whether the frame's metadata parsed; a frame that checksums but does not
// parse ends the valid prefix, exactly like a torn frame.
func (s *Store) apply(info frameInfo, metaJSON []byte) bool {
	switch info.typ {
	case frameEntry:
		var m Meta
		if err := json.Unmarshal(metaJSON, &m); err != nil || m.Key == "" {
			return false
		}
		s.setEntry(m.Key, entryRef{info: info, meta: m})
	case framePin:
		var p pinRecord
		if err := json.Unmarshal(metaJSON, &p); err != nil || p.Run == "" {
			return false
		}
		s.setPin(p.Run, p.Keys)
	case frameUnpin:
		var p pinRecord
		if err := json.Unmarshal(metaJSON, &p); err != nil || p.Run == "" {
			return false
		}
		s.dropPin(p.Run)
	case frameTombstone:
		var tr tombRecord
		if err := json.Unmarshal(metaJSON, &tr); err != nil || tr.Key == "" {
			return false
		}
		s.dropEntry(tr.Key)
	}
	return true
}

func (s *Store) setEntry(key string, ref entryRef) {
	if _, live := s.entries[key]; !live {
		s.order = append(s.order, key)
	}
	s.entries[key] = ref
}

func (s *Store) dropEntry(key string) {
	if _, live := s.entries[key]; !live {
		return
	}
	delete(s.entries, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Store) setPin(run string, keys []string) {
	if _, live := s.pins[run]; !live {
		s.pinSeq = append(s.pinSeq, run)
	}
	s.pins[run] = keys
}

func (s *Store) dropPin(run string) {
	if _, live := s.pins[run]; !live {
		return
	}
	delete(s.pins, run)
	for i, r := range s.pinSeq {
		if r == run {
			s.pinSeq = append(s.pinSeq[:i], s.pinSeq[i+1:]...)
			break
		}
	}
}

// Path returns the log path.
func (s *Store) Path() string { return s.path }

// Close writes the sidecar index (read-write stores) and releases the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if !s.ro && s.broken == nil {
		s.writeIndex()
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Sync flushes the log to stable storage and rewrites the sidecar index.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.writeIndex()
	return nil
}

func (s *Store) usable() error {
	if s.f == nil {
		return errors.New("store: closed")
	}
	if s.broken != nil {
		return fmt.Errorf("store: unusable after append failure: %w", s.broken)
	}
	if s.ro {
		return errors.New("store: read-only")
	}
	return nil
}

// append writes one encoded frame at the end of the valid prefix and
// advances it. On a short or failed write it truncates back so the log
// never grows an unreadable middle; if even that fails, the store latches
// broken and refuses further mutations.
func (s *Store) append(frame []byte) (int64, error) {
	off := s.size
	n, err := s.f.WriteAt(frame, off)
	if err != nil {
		if n > 0 {
			if terr := s.f.Truncate(off); terr != nil {
				s.broken = terr
			}
		}
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.size = off + int64(len(frame))
	return off, nil
}

// Put appends one entry under key, replacing any live entry with the same
// key (last append wins). The meta's Key, StoredAt and Size fields are
// stamped by the store; everything else is the caller's.
func (s *Store) Put(key string, payload []byte, m Meta) error {
	return s.PutParts(key, m, payload)
}

// PutParts is Put for a payload given as parts, concatenated in order. The
// parts are copied once, into the frame, so a caller holding a payload in
// pieces need not join them first.
func (s *Store) PutParts(key string, m Meta, parts ...[]byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	m.Key = key
	m.StoredAt = s.now().UTC()
	m.Size = 0
	for _, p := range parts {
		m.Size += int64(len(p))
	}
	frame, info, err := encodeFrame(frameEntry, &m, parts...)
	if err != nil {
		return err
	}
	if info.off, err = s.append(frame); err != nil {
		return err
	}
	s.setEntry(key, entryRef{info: info, meta: m})
	return nil
}

// Get returns the payload stored under key. The frame is re-read from disk
// and its checksum re-verified on every call, so bytes that rotted or were
// overwritten out-of-band surface as an error, never as silent corruption.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.f == nil {
		return nil, errors.New("store: closed")
	}
	ref, ok := s.entries[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	frame := make([]byte, ref.info.end()-ref.info.off)
	if _, err := s.f.ReadAt(frame, ref.info.off); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", key, err)
	}
	info, ok := decodeFrame(frame, 0)
	if !ok || info.typ != frameEntry {
		return nil, fmt.Errorf("store: entry %s: frame at offset %d failed verification", key, ref.info.off)
	}
	return frame[info.bodyOff() : info.bodyOff()+int64(info.bodyLen)], nil
}

// Has reports whether a live entry exists for key.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[key]
	return ok
}

// Stat returns the metadata of the live entry for key.
func (s *Store) Stat(key string) (Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.entries[key]
	if !ok {
		return Meta{}, false
	}
	return ref.meta.clone(), true
}

// Keys returns every live entry key, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// LogSize reports the valid log prefix length in bytes.
func (s *Store) LogSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

func (m Meta) clone() Meta {
	if m.Env != nil {
		env := make(map[string]string, len(m.Env))
		for k, v := range m.Env {
			env[k] = v
		}
		m.Env = env
	}
	return m
}
