package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"
)

// corpusEmpty, corpusTruncatedChecksum and corpusDuplicateKey build the
// three named seed corpora deterministically; they are also checked in
// under testdata/fuzz/FuzzStoreOpen so `go test` exercises them even
// without -fuzz.
func corpusEmpty() []byte { return nil }

func corpusValid(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "seed.store")
	s, err := Open(path, Options{Now: func() time.Time { return time.Unix(0, 0).UTC() }})
	if err != nil {
		tb.Fatal(err)
	}
	key, payload, m := testEntry(0)
	if err := s.Put(key, payload, m); err != nil {
		tb.Fatal(err)
	}
	if err := s.Pin("run", key); err != nil {
		tb.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func corpusTruncatedChecksum(tb testing.TB) []byte {
	data := corpusValid(tb)
	return data[:len(data)-sumSize/2] // half the final frame's checksum gone
}

func corpusDuplicateKey(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "dup.store")
	s, err := Open(path, Options{Now: func() time.Time { return time.Unix(0, 0).UTC() }})
	if err != nil {
		tb.Fatal(err)
	}
	key, payload, m := testEntry(0)
	if err := s.Put(key, payload, m); err != nil {
		tb.Fatal(err)
	}
	if err := s.Put(key, append(payload, '!'), m); err != nil {
		tb.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// writeFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzStoreOpen. Run with
//
//	go test ./internal/store -run TestWriteFuzzCorpus -write-fuzz-corpus
//
// after changing the log format. The builders are deterministic (fixed
// clock), so regeneration is reproducible.
var writeFuzzCorpus = flag.Bool("write-fuzz-corpus", false, "regenerate testdata/fuzz seed corpora")

func TestWriteFuzzCorpus(t *testing.T) {
	if !*writeFuzzCorpus {
		t.Skip("run with -write-fuzz-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreOpen")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":              corpusEmpty(),
		"truncated-checksum": corpusTruncatedChecksum(t),
		"duplicate-key":      corpusDuplicateKey(t),
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzStoreOpen: arbitrary bytes as a store log must never panic — every
// input yields either a clean error or a valid store whose every surfaced
// entry round-trips its checksum.
func FuzzStoreOpen(f *testing.F) {
	f.Add(corpusEmpty())
	f.Add([]byte(logMagic))
	f.Add([]byte(logMagic[:5]))
	f.Add(corpusValid(f))
	f.Add(corpusTruncatedChecksum(f))
	f.Add(corpusDuplicateKey(f))
	f.Add(append([]byte(logMagic), frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], frameEntry, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.store")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Skip()
		}
		for _, ro := range []bool{true, false} {
			// Each mode gets its own copy: the read-write open may truncate.
			p := filepath.Join(dir, map[bool]string{true: "ro.store", false: "rw.store"}[ro])
			if err := os.WriteFile(p, data, 0o666); err != nil {
				t.Skip()
			}
			s, err := Open(p, Options{ReadOnly: ro})
			if err != nil {
				continue // clean error is a valid outcome
			}
			for _, key := range s.Keys() {
				if _, err := s.Get(key); err != nil {
					t.Errorf("ro=%v: surfaced entry %q does not verify: %v", ro, key, err)
				}
				if m, ok := s.Stat(key); !ok || m.Key != key {
					t.Errorf("ro=%v: Stat(%q) inconsistent: %+v %v", ro, key, m, ok)
				}
			}
			if _, err := s.Verify(); err != nil {
				t.Errorf("ro=%v: opened store fails Verify: %v", ro, err)
			}
			s.Close()
		}
	})
}

// FuzzFrameRoundTrip: encode→decode is a fixed point for every
// representable frame, and decoding arbitrary mutations never panics.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("somekey", []byte(`{"x":1}`), byte(0), byte(0))
	f.Add("", []byte{}, byte(1), byte(0xff))
	f.Add("k", bytes.Repeat([]byte{0}, 1024), byte(2), byte(7))
	f.Add("run", []byte("payload"), byte(3), byte(128))

	types := []byte{frameEntry, framePin, frameUnpin, frameTombstone}
	f.Fuzz(func(t *testing.T, key string, body []byte, typSel, flip byte) {
		if !utf8.ValidString(key) {
			t.Skip() // JSON round-trips only valid UTF-8 strings verbatim
		}
		typ := types[int(typSel)%len(types)]
		var metaRec any
		switch typ {
		case frameEntry:
			metaRec = &Meta{Key: key, Campaign: "c", Size: int64(len(body))}
		case framePin:
			metaRec = &pinRecord{Run: key, Keys: []string{"a", "b"}}
		case frameUnpin:
			metaRec = &pinRecord{Run: key}
		case frameTombstone:
			metaRec = &tombRecord{Key: key}
			body = nil // tombstones carry no payload
		}
		frame, encInfo, err := encodeFrame(typ, metaRec, body)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}

		info, ok := decodeFrame(frame, 0)
		if !ok {
			t.Fatalf("freshly encoded frame does not decode (typ %c, key %q, %d body bytes)", typ, key, len(body))
		}
		if info != encInfo {
			t.Fatalf("encodeFrame's index entry %+v, decodeFrame's %+v", encInfo, info)
		}
		if info.typ != typ || int(info.bodyLen) != len(body) || info.end() != int64(len(frame)) {
			t.Fatalf("decode mismatch: %+v vs typ %c body %d len %d", info, typ, len(body), len(frame))
		}
		// The same body cut into parts, some empty, encodes the same frame.
		parts := cutParts(uint64(flip)<<8|uint64(typSel), body)
		split, splitInfo, err := encodeFrame(typ, metaRec, parts...)
		if err != nil {
			t.Fatalf("encode in %d parts: %v", len(parts), err)
		}
		if !bytes.Equal(split, frame) || splitInfo != info {
			t.Fatalf("body in %d parts encodes a different frame: %+v vs %+v", len(parts), splitInfo, info)
		}
		if got, ok := decodeFrame(split, 0); !ok || got != splitInfo {
			t.Fatalf("multi-part frame decodes to %+v (ok %v), encodeFrame said %+v", got, ok, splitInfo)
		}

		gotBody := frame[info.bodyOff() : info.bodyOff()+int64(info.bodyLen)]
		if !bytes.Equal(gotBody, body) {
			t.Fatal("body bytes not a fixed point")
		}
		gotMeta := frame[info.metaOff():info.bodyOff()]
		reenc, err := json.Marshal(metaRec)
		if err != nil || !bytes.Equal(gotMeta, reenc) {
			t.Fatalf("meta bytes not a fixed point: %q vs %q (%v)", gotMeta, reenc, err)
		}

		// A single flipped byte anywhere in the frame must kill it — the
		// checksum covers every byte. (flip==0 would be a no-op; force a
		// real flip.)
		mut := append([]byte(nil), frame...)
		pos := int(typSel) % len(mut)
		bit := flip
		if bit == 0 {
			bit = 1
		}
		mut[pos] ^= bit
		if _, ok := decodeFrame(mut, 0); ok {
			t.Fatalf("frame with byte %d xor %#x still decodes", pos, bit)
		}

		// Decoding at every offset of the mutated frame must not panic and
		// never yields a frame extending past the buffer.
		for off := int64(0); off <= int64(len(mut)); off++ {
			if in, ok := decodeFrame(mut, off); ok && in.end() > int64(len(mut)) {
				t.Fatalf("decode at %d overruns the buffer", off)
			}
		}
	})
}
