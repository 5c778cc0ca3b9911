package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Pin marks the given keys as belonging to the named run, replacing the
// run's previous key set if it was already pinned. A key's refcount is the
// number of runs pinning it; GC reclaims only entries with no pins and no
// pinned descendant (see GC). Keys are stored sorted and deduplicated;
// pinning keys with no live entry is allowed (the run may predate a GC) and
// simply holds nothing.
func (s *Store) Pin(run string, keys ...string) error {
	if run == "" {
		return fmt.Errorf("store: empty run name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	set := map[string]bool{}
	for _, k := range keys {
		if k != "" {
			set[k] = true
		}
	}
	sorted := make([]string, 0, len(set))
	for k := range set {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	frame, _, err := encodeFrame(framePin, &pinRecord{Run: run, Keys: sorted}, nil)
	if err != nil {
		return err
	}
	if _, err := s.append(frame); err != nil {
		return err
	}
	s.setPin(run, sorted)
	return nil
}

// Unpin drops the named run's pins. Unpinning an unknown run is a no-op
// that still appends the frame, so intent is durable either way.
func (s *Store) Unpin(run string) error {
	if run == "" {
		return fmt.Errorf("store: empty run name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	frame, _, err := encodeFrame(frameUnpin, &pinRecord{Run: run}, nil)
	if err != nil {
		return err
	}
	if _, err := s.append(frame); err != nil {
		return err
	}
	s.dropPin(run)
	return nil
}

// Pin is one named run's pinned key set.
type Pin struct {
	Run  string
	Keys []string
}

// Pins returns every pinned run in first-pin order with its sorted key
// set. The order is append order, so it is stable and reflects run
// history — the order the trend analysis walks.
func (s *Store) Pins() []Pin {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Pin, 0, len(s.pinSeq))
	for _, run := range s.pinSeq {
		keys := append([]string(nil), s.pins[run]...)
		out = append(out, Pin{Run: run, Keys: keys})
	}
	return out
}

// Refcount reports how many runs pin key.
func (s *Store) Refcount(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, keys := range s.pins {
		for _, k := range keys {
			if k == key {
				n++
			}
		}
	}
	return n
}

// liveSet computes the keys GC must keep: every pinned key, plus the
// transitive parent chain of every pinned entry — an adaptive round's
// provenance stays re-derivable as long as any round of the chain is
// pinned. Caller holds at least the read lock.
func (s *Store) liveSet() map[string]bool {
	live := map[string]bool{}
	var walk func(key string)
	walk = func(key string) {
		for key != "" && !live[key] {
			live[key] = true
			ref, ok := s.entries[key]
			if !ok {
				return
			}
			key = ref.meta.Parent
		}
	}
	for _, keys := range s.pins {
		for _, k := range keys {
			walk(k)
		}
	}
	return live
}

// GC reclaims every entry that no run pins and no pinned entry's round
// chain references, appending one tombstone frame per reclaimed key. The
// reclaimed keys are returned sorted. Tombstoned bytes stay in the log
// until the next Compact; a GC'd store therefore never loses crash
// recoverability mid-collection — replaying the log reproduces exactly the
// tombstones that were appended.
func (s *Store) GC() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return nil, err
	}
	live := s.liveSet()
	var dead []string
	for key := range s.entries {
		if !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		frame, _, err := encodeFrame(frameTombstone, &tombRecord{Key: key}, nil)
		if err != nil {
			return nil, err
		}
		if _, err := s.append(frame); err != nil {
			return nil, err
		}
		s.dropEntry(key)
	}
	return dead, nil
}

// compactRename is swapped out by tests to interrupt a compaction at the
// moment of the atomic rename.
var compactRename = os.Rename

// Compact rewrites the live state into a fresh log — live entry frames in
// their original append order, then one pin frame per run — and atomically
// replaces the old log (write-temp + rename). Tombstoned and superseded
// frames are dropped; payload bytes, metadata (StoredAt included) and entry
// order are preserved exactly, so every query answers identically before
// and after. If compaction is interrupted anywhere before the rename, the
// old log is untouched and fully readable.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}

	tmp, err := os.CreateTemp(dirOf(s.path), ".compact.tmp*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: compact: %w", err)
	}

	// Rebuild the log in memory first: header, entries (re-read from the
	// old log and re-verified, so a rotted frame aborts the compaction
	// instead of being laundered into a "fresh" one), then pins.
	out := []byte(logMagic)
	newRefs := map[string]entryRef{}
	for _, key := range s.order {
		ref := s.entries[key]
		frame := make([]byte, ref.info.end()-ref.info.off)
		if _, err := s.f.ReadAt(frame, ref.info.off); err != nil {
			return fail(fmt.Errorf("read entry %s: %w", key, err))
		}
		if _, ok := decodeFrame(frame, 0); !ok {
			return fail(fmt.Errorf("entry %s: frame at offset %d failed verification", key, ref.info.off))
		}
		info := ref.info
		info.off = int64(len(out))
		out = append(out, frame...)
		newRefs[key] = entryRef{info: info, meta: ref.meta}
	}
	for _, run := range s.pinSeq {
		frame, _, err := encodeFrame(framePin, &pinRecord{Run: run, Keys: s.pins[run]}, nil)
		if err != nil {
			return fail(err)
		}
		out = append(out, frame...)
	}

	if _, err := tmp.Write(out); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// The new log is locked before the rename gives it the store's path,
	// so no other writer can open it in between.
	if err := lockLog(tmp, s.path); err != nil {
		return fail(err)
	}
	if err := compactRename(tmpName, s.path); err != nil {
		return fail(err)
	}

	// The rename happened: the new log is the store. Its handle replaces
	// the old one, and the in-memory state moves to the new offsets.
	s.f.Close()
	s.f = tmp
	s.size = int64(len(out))
	s.entries = newRefs
	s.writeIndex()
	return nil
}

// VerifyReport summarizes a full-log verification pass.
type VerifyReport struct {
	// Frames is the number of intact frames in the log.
	Frames int
	// Entries, Tombstones, PinFrames and UnpinFrames count them by type
	// (Entries counts every entry frame, superseded ones included).
	Entries, Tombstones, PinFrames, UnpinFrames int
	// Live and Pinned are the live entry count and distinct pinned runs
	// after replaying the log.
	Live, Pinned int
	// Bytes is the verified log prefix length.
	Bytes int64
}

// Verify re-reads the entire log from disk, re-verifies every frame
// checksum, replays the frames into a fresh state, and cross-checks that
// state against the open store's. Any divergence — a frame that fails its
// checksum inside the valid prefix, an index that disagrees with the log —
// is an error.
func (s *Store) Verify() (VerifyReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rep VerifyReport
	if s.f == nil {
		return rep, fmt.Errorf("store: closed")
	}
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return rep, fmt.Errorf("store: verify: read log: %w", err)
	}
	if string(buf[:min(int64(len(buf)), int64(logHeader))]) != logMagic[:min(len(buf), logHeader)] {
		return rep, fmt.Errorf("store: verify: bad header")
	}
	fresh := &Store{entries: map[string]entryRef{}, pins: map[string][]string{}}
	off := int64(logHeader)
	for off < s.size {
		info, ok := decodeFrame(buf, off)
		if !ok {
			return rep, fmt.Errorf("store: verify: frame at offset %d failed verification", off)
		}
		if !fresh.apply(info, buf[info.metaOff():info.bodyOff()]) {
			return rep, fmt.Errorf("store: verify: frame at offset %d has unparsable metadata", off)
		}
		rep.Frames++
		switch info.typ {
		case frameEntry:
			rep.Entries++
		case frameTombstone:
			rep.Tombstones++
		case framePin:
			rep.PinFrames++
		case frameUnpin:
			rep.UnpinFrames++
		}
		off = info.end()
	}
	rep.Bytes = off
	rep.Live = len(fresh.entries)
	rep.Pinned = len(fresh.pins)

	// Cross-check the replay against the open store's state (which may
	// have come from the sidecar index).
	if len(fresh.entries) != len(s.entries) {
		return rep, fmt.Errorf("store: verify: index lists %d live entries, log replay %d", len(s.entries), len(fresh.entries))
	}
	for key, ref := range s.entries {
		fr, ok := fresh.entries[key]
		if !ok {
			return rep, fmt.Errorf("store: verify: indexed entry %s not live in the log", key)
		}
		if fr.info != ref.info {
			return rep, fmt.Errorf("store: verify: entry %s: index offset %d disagrees with log offset %d", key, ref.info.off, fr.info.off)
		}
	}
	if len(fresh.pins) != len(s.pins) {
		return rep, fmt.Errorf("store: verify: index lists %d pinned runs, log replay %d", len(s.pins), len(fresh.pins))
	}
	for run, keys := range s.pins {
		fk, ok := fresh.pins[run]
		if !ok || !equalStrings(fk, keys) {
			return rep, fmt.Errorf("store: verify: pinned run %q disagrees between index and log", run)
		}
	}
	return rep, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dirOf(path string) string {
	return filepath.Dir(path)
}
