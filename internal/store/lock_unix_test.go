//go:build unix && !aix && !solaris

package store

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWriterPerStore: while a store is open read-write, a second
// read-write Open fails naming the path and a read-only Open succeeds —
// before and after Compact, which swaps in a new log file. After Close, a
// read-write Open succeeds again.
func TestOneWriterPerStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lock.store")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, payload, m := testEntry(0)
	if err := s.Put(key, payload, m); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if second, err := Open(path, Options{}); err == nil {
			second.Close()
			t.Fatalf("%s: a second read-write open succeeded", when)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: lock error does not name the store: %v", when, err)
		}
		ro, err := Open(path, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("%s: read-only open: %v", when, err)
		}
		if !ro.Has(key) {
			t.Errorf("%s: read-only open does not see the entry", when)
		}
		ro.Close()
	}
	check("before Compact")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after Compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("read-write open after Close: %v", err)
	}
	again.Close()
}
