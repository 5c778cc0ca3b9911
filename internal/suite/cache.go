package suite

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"sync"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/meta"
	"opaquebench/internal/runner"
	"opaquebench/internal/store"
)

// The cache is content-addressed: a campaign's key is a canonical hash of
// everything that determines its records — the engine name, the canonical
// engine config, the materialized design CSV (which captures factors,
// levels, replication and the randomized schedule), the campaign seed, and
// the module version. Anything outside that set (output paths, worker
// counts, suite membership) deliberately does not contribute: engines are
// trial-indexed, so those choices cannot change a single byte of output.

// ModuleVersion reports the running module's build identity. It is a
// cache-key component so entries never survive a change of the simulators:
// a release version (clean VCS state) identifies the code exactly, but a
// development build — "(devel)", or any build from a modified tree — does
// not, so those fall back to the executable's own content hash, which
// moves with every code edit. The fallback is conservative: two binaries
// of identical source built by different toolchains miss each other's
// entries, which costs a re-run, never a stale replay.
var ModuleVersion = sync.OnceValue(func() string {
	version, modified := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		version = bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				modified = true
			}
		}
	}
	if version != "" && version != "(devel)" && !modified {
		return version
	}
	if sum, err := executableDigest(); err == nil {
		return "devel-" + hex.EncodeToString(sum[:8])
	}
	return "unknown"
})

// executableDigest is the SHA-256 of the running executable. It streams
// the file through the hash, so the binary is never held in memory whole.
func executableDigest() ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	_, err = io.Copy(h, f)
	return h.Sum(nil), err
}

// cacheKey computes a campaign's content address. config must already be
// canonical (see engine.Canonical).
func cacheKey(engine string, config []byte, design *doe.Design, seed uint64, version string) (string, error) {
	var csv bytes.Buffer
	if err := design.WriteCSV(&csv); err != nil {
		return "", fmt.Errorf("suite: materialize design: %w", err)
	}
	h := sha256.New()
	for _, part := range [][]byte{
		[]byte(engine),
		config,
		csv.Bytes(),
		[]byte(strconv.FormatUint(seed, 10)),
		[]byte(version),
	} {
		// Length-prefix every section so no concatenation of different
		// sections can collide.
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Entry is one cached campaign result: the full raw record set in design
// order plus the captured environment, exactly as a cold run produced them.
type Entry struct {
	// Suite and Campaign record provenance for humans browsing the cache;
	// they are not part of the key.
	Suite    string `json:"suite,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	// Engine is the engine that produced the records.
	Engine string `json:"engine"`
	// Round is the 1-based round index for entries of an adaptive
	// campaign (one cache entry per round); 0 for static campaigns.
	// Provenance only — never part of the key — but it lets consumers
	// (the differential comparator) reassemble a campaign's rounds
	// instead of mistaking them for an ambiguous cache.
	Round int `json:"round,omitempty"`
	// Parent is the cache key of the previous adaptive round's entry —
	// the provenance link that chains round N to the records it was
	// planned from. Empty for round 1 and static campaigns. Like Round it
	// is provenance only, never part of the key.
	Parent string `json:"parent,omitempty"`
	// Seed is the campaign seed.
	Seed uint64 `json:"seed"`
	// Env is the cold run's captured environment, without suite
	// annotations (verdicts are stamped per run onto a clone).
	Env *meta.Environment `json:"env"`
	// Records is the full raw record set in design order.
	Records []cachedRecord `json:"records"`
}

// cachedRecord fixes the cache schema independently of the core.RawRecord
// Go struct. encoding/json round-trips float64 exactly (shortest-form
// encoding), so replayed records are bit-equal to the cold run's.
type cachedRecord struct {
	Seq     int               `json:"seq"`
	Rep     int               `json:"rep"`
	Value   float64           `json:"value"`
	Seconds float64           `json:"seconds"`
	At      float64           `json:"at"`
	Point   map[string]string `json:"point,omitempty"`
	Extra   map[string]string `json:"extra,omitempty"`
}

// Replay drains the entry's records into the sinks — record for record the
// sequence a cold run streams, in design order, each sink flushed after its
// last record. The differential comparator's replay-to-memory reads (via
// runner.MemorySink) and adaptive rounds go through it; a static suite hit
// needs no records and copies the entry's bytes instead (see rawEntry).
func (e *Entry) Replay(sinks ...runner.RecordSink) error {
	records := e.records()
	for _, s := range sinks {
		for _, rec := range records {
			if err := s.Write(rec); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// records rebuilds the raw record set for sink replay.
func (e *Entry) records() []core.RawRecord {
	out := make([]core.RawRecord, len(e.Records))
	for i, c := range e.Records {
		r := core.RawRecord{Seq: c.Seq, Rep: c.Rep, Value: c.Value, Seconds: c.Seconds, At: c.At, Extra: c.Extra}
		if len(c.Point) > 0 {
			r.Point = make(doe.Point, len(c.Point))
			for k, v := range c.Point {
				r.Point[k] = doe.Level(v)
			}
		}
		out[i] = r
	}
	return out
}

// Entry payloads come in two formats. Format 1 (legacy) is the JSON
// encoding of Entry, records array included; it is still decoded, so
// pinned history and checked-in fixtures stay readable, but nothing writes
// it any more. Format 2 carries the bytes a cold run streamed:
//
//	opaquebench-entry/2\n
//	{head JSON: provenance, env, record count, section lengths}\n
//	<CSV section><JSONL section>
//
// The CSV section is exactly the campaign's CSV output and the JSONL
// section exactly its JSONL output, so a static hit is a byte copy into the
// output files. Each JSONL line is also, byte for byte, what encoding/json
// writes for one element of a format-1 records array (the JSONL sink
// reproduces its field order, float format and HTML escaping), so records
// decode from that section exactly as they did from format 1.
const entryMagic = "opaquebench-entry/2\n"

// entryHead is a format-2 payload's head line.
type entryHead struct {
	Suite    string            `json:"suite,omitempty"`
	Campaign string            `json:"campaign,omitempty"`
	Engine   string            `json:"engine"`
	Round    int               `json:"round,omitempty"`
	Parent   string            `json:"parent,omitempty"`
	Seed     uint64            `json:"seed"`
	Env      *meta.Environment `json:"env"`
	// Records is the number of records, one per JSONL line.
	Records int `json:"records"`
	// CSVBytes and JSONLBytes are the lengths of the two body sections.
	CSVBytes   int `json:"csv_bytes"`
	JSONLBytes int `json:"jsonl_bytes"`
}

// rawEntry is a format-2 entry: its head and its two output sections.
type rawEntry struct {
	entryHead
	csv, jsonl []byte
}

// newRawEntry encodes an entry's records into the two sections, through the
// same sinks a cold run streams into.
func newRawEntry(e *Entry) (*rawEntry, error) {
	var csv, jsonl bytes.Buffer
	if err := e.Replay(runner.NewCSVSink(&csv), runner.NewJSONLSink(&jsonl)); err != nil {
		return nil, err
	}
	return &rawEntry{entryHead: e.head(), csv: csv.Bytes(), jsonl: jsonl.Bytes()}, nil
}

// head is the entry's format-2 head, section lengths aside.
func (e *Entry) head() entryHead {
	return entryHead{Suite: e.Suite, Campaign: e.Campaign, Engine: e.Engine, Round: e.Round,
		Parent: e.Parent, Seed: e.Seed, Env: e.Env, Records: len(e.Records)}
}

// marshal renders a format-2 payload's head, the magic line and the head
// line, for sections of csvBytes and jsonlBytes. The payload is the head
// followed by the CSV and JSONL sections.
func (h entryHead) marshal(csvBytes, jsonlBytes int) ([]byte, error) {
	h.CSVBytes, h.JSONLBytes = csvBytes, jsonlBytes
	head, err := json.Marshal(&h)
	if err != nil {
		return nil, err
	}
	data := make([]byte, 0, len(entryMagic)+len(head)+1)
	data = append(data, entryMagic...)
	data = append(data, head...)
	return append(data, '\n'), nil
}

// section is one body section of a format-2 payload, held as chunks in
// order. As an io.Writer it captures a cold run's stream: each chunk is
// allocated once, at a size that grows with the stream up to 64 KB, so
// capturing never copies bytes it already holds (a growing bytes.Buffer
// copies its contents about twice over), and the chunks go to the store
// as parts of the payload.
type section struct {
	chunks [][]byte
	n      int
}

// sectionOf is the section holding b.
func sectionOf(b []byte) section {
	return section{chunks: [][]byte{b}, n: len(b)}
}

func (s *section) Write(p []byte) (int, error) {
	s.n += len(p)
	for rest := p; len(rest) > 0; {
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
			s.chunks = append(s.chunks, make([]byte, 0, min(64<<10, max(4<<10, s.n-len(rest)))))
			last++
		}
		c := s.chunks[last]
		k := min(len(rest), cap(c)-len(c))
		s.chunks[last] = append(c, rest[:k]...)
		rest = rest[k:]
	}
	return len(p), nil
}

// parseRawEntry splits a format-2 payload without decoding any record. It
// refuses a payload of any other format and one whose sections do not add
// up: the head must be whole, the section lengths must cover the body
// exactly, and the JSONL section must hold one complete line per record.
func parseRawEntry(data []byte) (*rawEntry, error) {
	rest, ok := bytes.CutPrefix(data, []byte(entryMagic))
	if !ok {
		return nil, errors.New("not a format-2 entry")
	}
	head, body, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, errors.New("torn entry head")
	}
	r := &rawEntry{}
	if err := json.Unmarshal(head, &r.entryHead); err != nil {
		return nil, fmt.Errorf("entry head: %w", err)
	}
	if r.CSVBytes < 0 || r.JSONLBytes < 0 || r.CSVBytes+r.JSONLBytes != len(body) {
		return nil, fmt.Errorf("entry sections of %d and %d bytes do not match its %d-byte body", r.CSVBytes, r.JSONLBytes, len(body))
	}
	r.csv, r.jsonl = body[:r.CSVBytes:r.CSVBytes], body[r.CSVBytes:]
	if n := bytes.Count(r.jsonl, []byte{'\n'}); n != r.Records || (len(r.jsonl) > 0 && r.jsonl[len(r.jsonl)-1] != '\n') {
		return nil, fmt.Errorf("entry claims %d records but its JSONL section holds %d lines", r.Records, n)
	}
	return r, nil
}

// entry decodes the records from the JSONL section, one line per record.
func (r *rawEntry) entry() (*Entry, error) {
	e := &Entry{Suite: r.Suite, Campaign: r.Campaign, Engine: r.Engine, Round: r.Round,
		Parent: r.Parent, Seed: r.Seed, Env: r.Env, Records: make([]cachedRecord, r.Records)}
	rest := r.jsonl
	for i := range e.Records {
		n := bytes.IndexByte(rest, '\n')
		if err := json.Unmarshal(rest[:n], &e.Records[i]); err != nil {
			return nil, fmt.Errorf("entry record %d: %w", i, err)
		}
		rest = rest[n+1:]
	}
	return e, nil
}

// decodeEntry decodes a payload of either format — the one reader every
// record consumer (Load, ImportDirToStore) goes through.
func decodeEntry(data []byte) (*Entry, error) {
	if !bytes.HasPrefix(data, []byte(entryMagic)) {
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, err
		}
		return &e, nil
	}
	r, err := parseRawEntry(data)
	if err != nil {
		return nil, err
	}
	return r.entry()
}

// Cache is the content-addressed cache of entries keyed by campaign key: a
// single-file embedded store (internal/store, an append-only checksummed log
// plus a sidecar index) holding each entry's format-2 payload bytes beside
// queryable metadata, pinned runs and round provenance. Stores are atomic
// (one checksummed frame per entry) and last-write-wins; Keys are sorted. A
// read-write store has one writer process at a time.
type Cache struct {
	st *store.Store
}

// Close closes the underlying store, flushing its index.
func (c *Cache) Close() error { return c.st.Close() }

// Keys lists the key of every entry in the cache, sorted.
func (c *Cache) Keys() []string { return c.st.Keys() }

// Lookup reports whether an entry exists for key.
func (c *Cache) Lookup(key string) bool { return c.st.Has(key) }

// get reads the payload stored under key.
func (c *Cache) get(key string) ([]byte, error) {
	data, err := c.st.Get(key)
	if err != nil {
		return nil, fmt.Errorf("suite: cache load: %w", err)
	}
	return data, nil
}

// Load reads and decodes the entry for key, records included, from a
// payload of either format.
func (c *Cache) Load(key string) (*Entry, error) {
	data, err := c.get(key)
	if err != nil {
		return nil, err
	}
	e, err := decodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("suite: cache entry %s: %w", key, err)
	}
	return e, nil
}

// loadRaw reads the format-2 entry for key without decoding its records.
// A legacy payload is refused like a torn one: a hit must be a byte copy.
func (c *Cache) loadRaw(key string) (*rawEntry, error) {
	data, err := c.get(key)
	if err != nil {
		return nil, err
	}
	r, err := parseRawEntry(data)
	if err != nil {
		return nil, fmt.Errorf("suite: cache entry %s: %w", key, err)
	}
	return r, nil
}

// Store writes the entry for key atomically, replacing any previous entry
// (last write wins). It exists for tests and tools that build entries from
// records: suite runs write the bytes their cold runs streamed instead,
// through storeRaw. The records are encoded once, into the format-2
// sections; they must therefore suit the CSV sink (one factor and extra key
// set), as every engine's records do.
func (c *Cache) Store(key string, e *Entry) error {
	r, err := newRawEntry(e)
	if err != nil {
		return fmt.Errorf("suite: cache encode: %w", err)
	}
	return c.storeRaw(key, r.entryHead, sectionOf(r.csv), sectionOf(r.jsonl))
}

// storeRaw writes a format-2 entry for key as one checksummed store frame,
// whose recovery rule means a crashed writer never leaves a torn entry
// behind. The head and the sections' chunks go to the store as parts, so
// the payload is copied once, into the frame, and never assembled on its
// own.
func (c *Cache) storeRaw(key string, h entryHead, csv, jsonl section) error {
	head, err := h.marshal(csv.n, jsonl.n)
	if err != nil {
		return fmt.Errorf("suite: cache encode: %w", err)
	}
	parts := make([][]byte, 0, 1+len(csv.chunks)+len(jsonl.chunks))
	parts = append(append(append(parts, head), csv.chunks...), jsonl.chunks...)
	if err := c.st.PutParts(key, h.meta(), parts...); err != nil {
		return fmt.Errorf("suite: cache store: %w", err)
	}
	return nil
}
