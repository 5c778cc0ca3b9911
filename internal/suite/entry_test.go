package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"opaquebench/internal/meta"
	"opaquebench/internal/store"
)

// awkwardStrings are the values JSON and CSV escaping must both survive:
// HTML-escaped bytes, the JavaScript line separators, invalid UTF-8,
// quotes, commas, newlines and control characters.
var awkwardStrings = []string{
	"", "plain", "<tag>", "a&b", "\u2028", "x\u2029y", "\xff\xfe", `"quoted"`,
	"co,mma", "new\nline", "cr\r", "tab\t", `back\slash`, "\x01ctl", "é→",
}

// awkwardFloat draws from the float classes encoding/json formats
// differently: 'e' form below 1e-6 and at or above 1e21, negative zero,
// subnormals, and ordinary 'f' form values.
func awkwardFloat(r *rand.Rand) float64 {
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch r.Intn(7) {
	case 0:
		return sign * r.Float64() * 1e-6 * math.Pow(10, -float64(r.Intn(300)))
	case 1:
		return sign * (1 + r.Float64()) * 1e21 * math.Pow(10, float64(r.Intn(280)))
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return sign * math.Float64frombits(1+r.Uint64()%(1<<52-1))
	case 4:
		return 0
	case 5:
		return sign * float64(r.Intn(1e6))
	}
	return sign * r.Float64() * math.Pow(10, float64(r.Intn(27)-6))
}

// awkwardEntry builds a random entry whose records share one point and one
// extra key set (the CSV sink's requirement), possibly empty, with n
// records.
func awkwardEntry(r *rand.Rand, n int) *Entry {
	keys := func() []string {
		var ks []string
		for _, k := range []string{"size", "a<b", "k,1", `q"`, "nl\n", "\xff", "\u2028"} {
			if r.Intn(3) == 0 {
				ks = append(ks, k)
			}
		}
		return ks
	}
	pointKeys, extraKeys := keys(), keys()
	e := &Entry{
		Suite: "prop", Campaign: "c<1>", Engine: "membench", Seed: r.Uint64() >> 11,
		Env:     &meta.Environment{CapturedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC), Fields: map[string]string{"host": "a&b\u2028"}},
		Records: make([]cachedRecord, n),
	}
	for i := range e.Records {
		rec := cachedRecord{Seq: i, Rep: r.Intn(9), Value: awkwardFloat(r), Seconds: awkwardFloat(r), At: awkwardFloat(r)}
		if len(pointKeys) > 0 || r.Intn(2) == 0 {
			// An empty non-nil map encodes like a nil one: omitted.
			rec.Point = map[string]string{}
		}
		for _, k := range pointKeys {
			rec.Point[k] = awkwardStrings[r.Intn(len(awkwardStrings))]
		}
		if len(extraKeys) > 0 {
			rec.Extra = map[string]string{}
		}
		for _, k := range extraKeys {
			rec.Extra[k] = awkwardStrings[r.Intn(len(awkwardStrings))]
		}
		e.Records[i] = rec
	}
	return e
}

// TestJSONLSectionMatchesLegacyEncoding is the format-2 exactness property:
// every line of an entry's JSONL section is byte for byte what
// encoding/json writes for the same record inside a legacy records array,
// so records decode from either format identically.
func TestJSONLSectionMatchesLegacyEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for c := 0; c < 300; c++ {
		n := r.Intn(12)
		if c == 0 {
			n = 0
		}
		e := awkwardEntry(r, n)
		raw, err := newRawEntry(e)
		if err != nil {
			t.Fatalf("case %d: encode: %v", c, err)
		}
		lines := bytes.SplitAfter(raw.jsonl, []byte{'\n'})
		if last := lines[len(lines)-1]; len(last) != 0 {
			t.Fatalf("case %d: JSONL section does not end in a newline", c)
		}
		lines = lines[:len(lines)-1]
		if len(lines) != n {
			t.Fatalf("case %d: %d JSONL lines for %d records", c, len(lines), n)
		}
		for i, line := range lines {
			want, err := json.Marshal(e.Records[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.TrimSuffix(line, []byte{'\n'}); !bytes.Equal(got, want) {
				t.Fatalf("case %d record %d:\n got %s\nwant %s", c, i, got, want)
			}
		}
	}
}

// plant stores payload under key, bypassing the entry encoder.
func plant(t *testing.T, c *Cache, key string, payload []byte) {
	t.Helper()
	if err := c.st.Put(key, payload, store.Meta{}); err != nil {
		t.Fatalf("plant %s: %v", key, err)
	}
}

// TestFormat2LoadMatchesLegacyLoad: Load of a format-2 entry equals Load of
// the legacy JSON encoding of the same entry.
func TestFormat2LoadMatchesLegacyLoad(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	c, _ := openTestStoreCache(t)
	for n := 0; n < 60; n++ {
		e := awkwardEntry(r, r.Intn(10))
		legacy, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		plant(t, c, "legacy", legacy)
		if err := c.Store("v2", e); err != nil {
			t.Fatalf("case %d: Store: %v", n, err)
		}
		want, err := c.Load("legacy")
		if err != nil {
			t.Fatalf("case %d: load legacy: %v", n, err)
		}
		got, err := c.Load("v2")
		if err != nil {
			t.Fatalf("case %d: load format 2: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: format-2 load differs from legacy load:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestUnusableEntryFallsBackToColdRun: a format-2 entry that fails its
// checks, or a legacy payload under a current key, is never replayed. The
// campaign runs cold, its outputs match the serial reference byte for
// byte, and the entry is overwritten in format 2.
func TestUnusableEntryFallsBackToColdRun(t *testing.T) {
	spec := parseTestSpec(t)
	refDir := t.TempDir()
	serialReference(t, spec, refDir)
	plans, err := BuildPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := plans[0].Key

	corruptions := []struct {
		name string
		edit func(t *testing.T, c *Cache, payload []byte) []byte
	}{
		{"bad magic", func(t *testing.T, c *Cache, p []byte) []byte {
			return bytes.Replace(p, []byte("opaquebench-entry/2"), []byte("opaquebench-entry/9"), 1)
		}},
		{"torn head", func(t *testing.T, c *Cache, p []byte) []byte {
			return p[:len(entryMagic)+20]
		}},
		{"truncated body", func(t *testing.T, c *Cache, p []byte) []byte {
			return p[:len(p)-1]
		}},
		{"lengths do not add up", func(t *testing.T, c *Cache, p []byte) []byte {
			// The sections would still split into whole JSONL lines, one
			// byte off.
			return bumpHeadField(t, p, "csv_bytes")
		}},
		{"JSONL tail not a whole line", func(t *testing.T, c *Cache, p []byte) []byte {
			return append(bumpHeadField(t, p, "jsonl_bytes"), '{')
		}},
		{"record count disagrees", func(t *testing.T, c *Cache, p []byte) []byte {
			r, err := parseRawEntry(p)
			if err != nil {
				t.Fatal(err)
			}
			r.Records++
			out, err := r.encode()
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"zero records, JSONL tail not a whole line", func(t *testing.T, c *Cache, p []byte) []byte {
			r, err := parseRawEntry(p)
			if err != nil {
				t.Fatal(err)
			}
			r.Records, r.jsonl = 0, []byte("{")
			out, err := r.encode()
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"legacy payload", func(t *testing.T, c *Cache, p []byte) []byte {
			e, err := c.Load(key)
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	for _, corr := range corruptions {
		label := corr.name
		c, _ := openTestStoreCache(t)
		if _, err := Run(context.Background(), spec, Options{Cache: c, BaseDir: t.TempDir()}); err != nil {
			t.Fatalf("%s: cold run: %v", label, err)
		}
		payload, err := c.get(key)
		if err != nil {
			t.Fatal(err)
		}
		plant(t, c, key, corr.edit(t, c, payload))
		if _, err := c.loadRaw(key); err == nil {
			t.Fatalf("%s: corrupted entry still loads as format 2", label)
		}

		outDir := t.TempDir()
		res, err := Run(context.Background(), spec, Options{Cache: c, BaseDir: outDir})
		if err != nil {
			t.Fatalf("%s: run over unusable entry: %v", label, err)
		}
		if cr := res.Campaigns[0]; cr.Hit || cr.Trials == 0 {
			t.Errorf("%s: unusable entry: verdict %s, %d trials", label, cr.Verdict(), cr.Trials)
		}
		for _, cr := range res.Campaigns[1:] {
			if !cr.Hit {
				t.Errorf("%s: intact %s did not replay", label, cr.Name)
			}
		}
		compareSinks(t, spec, refDir, outDir, label)

		// The cold rerun rewrote the entry in format 2, with the same
		// sections (only the environment's capture time differs).
		repaired, err := c.loadRaw(key)
		if err != nil {
			t.Fatalf("%s: entry not rewritten in format 2: %v", label, err)
		}
		orig, err := parseRawEntry(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired.csv, orig.csv) || !bytes.Equal(repaired.jsonl, orig.jsonl) || repaired.Records != orig.Records {
			t.Errorf("%s: rewritten entry's sections differ from the original's", label)
		}
	}
}

// bumpHeadField adds one to an integer field of a format-2 payload's head
// line, leaving every other byte as it was.
func bumpHeadField(t *testing.T, payload []byte, field string) []byte {
	t.Helper()
	re := regexp.MustCompile(`"` + field + `":(\d+)`)
	loc := re.FindSubmatchIndex(payload)
	if loc == nil {
		t.Fatalf("no %s in the entry head", field)
	}
	n, err := strconv.Atoi(string(payload[loc[2]:loc[3]]))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), payload[:loc[2]]...)
	out = strconv.AppendInt(out, int64(n+1), 10)
	return append(out, payload[loc[3]:]...)
}

// TestStaticHitOnAdaptiveRoundEntry: a static campaign over an adaptive
// campaign's seed design shares the seed round's key, and replays the
// round's entry as a byte copy identical to its own cold run.
func TestStaticHitOnAdaptiveRoundEntry(t *testing.T) {
	static := parseAdaptiveSpec(t)
	static.Campaigns[0].Adaptive = nil
	refDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(refDir, "out"), 0o777); err != nil {
		t.Fatal(err)
	}
	serialReference(t, static, refDir)

	c, _ := openTestStoreCache(t)
	adaptive, err := Run(context.Background(), parseAdaptiveSpec(t), Options{Cache: c, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatalf("adaptive cold run: %v", err)
	}
	outDir := t.TempDir()
	res, err := Run(context.Background(), static, Options{Cache: c, BaseDir: outDir})
	if err != nil {
		t.Fatalf("static run: %v", err)
	}
	cr := res.Campaigns[0]
	if cr.Key != adaptive.Campaigns[0].Rounds[0].Key {
		t.Fatalf("static key %s, adaptive seed round key %s", cr.Key, adaptive.Campaigns[0].Rounds[0].Key)
	}
	if !cr.Hit || cr.Trials != 0 {
		t.Errorf("static campaign: verdict %s, %d trials", cr.Verdict(), cr.Trials)
	}
	compareSinks(t, static, refDir, outDir, "static hit on adaptive round")
}

// TestStaticHitAllocationsIndependentOfSize: a static store-backed hit is a
// byte copy, so it allocates the same for a 10,000-record entry as for a
// 100-record one — no per-record decode or encode.
func TestStaticHitAllocationsIndependentOfSize(t *testing.T) {
	c, _ := openTestStoreCache(t)
	baseDir := t.TempDir()
	r := rand.New(rand.NewSource(7))
	allocs := map[int]float64{}
	for _, n := range []int{100, 10000} {
		e := &Entry{Engine: "membench", Env: meta.New().Set("host", "h"), Records: make([]cachedRecord, n)}
		for i := range e.Records {
			e.Records[i] = cachedRecord{Seq: i, Value: r.Float64(), At: float64(i),
				Point: map[string]string{"size": fmt.Sprint(r.Intn(1 << 20))}}
		}
		key := fmt.Sprintf("k%d", n)
		if err := c.Store(key, e); err != nil {
			t.Fatal(err)
		}
		p := Plan{Key: key, Campaign: Campaign{Name: "c", Engine: "membench",
			Out: "c.csv", JSONL: "c.jsonl", Env: "c.env.json"}}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if got, err := replayHit(c, p, "spec", baseDir); err != nil || got != n {
				t.Fatalf("replayHit: %d records, %v", got, err)
			}
		})
		csv := readFile(t, filepath.Join(baseDir, "c.csv"))
		if lines := strings.Count(string(csv), "\n"); lines != n+1 {
			t.Fatalf("%d records replayed as %d CSV lines", n, lines)
		}
	}
	// Under the race detector sync.Pool drops a random share of what it is
	// given, so a hit's count varies by a few allocations from run to run
	// (73 to 78 seen). The band of 10 is under one allocation per 990
	// extra records: one extra allocation per 100 records (99 more) still
	// fails it.
	if diff := allocs[10000] - allocs[100]; diff > 10 || diff < -10 {
		t.Errorf("hit allocations grow with the entry: %.0f for 100 records, %.0f for 10000", allocs[100], allocs[10000])
	}
	t.Logf("allocations per hit: %.0f (100 records), %.0f (10000 records)", allocs[100], allocs[10000])
}

// TestAdaptiveRoundRefreshesStaticEntry is the reverse direction: an
// adaptive seed round that hits an entry a static campaign stored (round
// 0) replays it and rewrites its head with the round index, keeping its
// sections, so the comparator can reassemble the round chain.
func TestAdaptiveRoundRefreshesStaticEntry(t *testing.T) {
	static := parseAdaptiveSpec(t)
	static.Campaigns[0].Adaptive = nil
	c, _ := openTestStoreCache(t)
	res, err := Run(context.Background(), static, Options{Cache: c, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatalf("static run: %v", err)
	}
	key := res.Campaigns[0].Key
	before, err := c.loadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(context.Background(), parseAdaptiveSpec(t), Options{Cache: c, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if r1 := adaptive.Campaigns[0].Rounds[0]; !r1.Hit || r1.Key != key {
		t.Fatalf("seed round %+v, want a hit on %s", r1, key)
	}
	after, err := c.loadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	if after.Round != 1 || after.Parent != "" {
		t.Errorf("seed round entry head has round %d parent %q, want round 1", after.Round, after.Parent)
	}
	if !bytes.Equal(after.csv, before.csv) || !bytes.Equal(after.jsonl, before.jsonl) {
		t.Errorf("refreshing the head changed the entry's sections")
	}
}

// TestSectionCapturesStream: a section holds exactly the bytes written to
// it, in order, whatever the write sizes, in chunks that are never
// reallocated once full and never exceed 64 KB.
func TestSectionCapturesStream(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		var sec section
		var want []byte
		for i := r.Intn(60); i > 0; i-- {
			p := make([]byte, r.Intn(20000))
			r.Read(p)
			if n, err := sec.Write(p); n != len(p) || err != nil {
				t.Fatalf("Write(%d bytes) = %d, %v", len(p), n, err)
			}
			want = append(want, p...)
		}
		if got := bytes.Join(sec.chunks, nil); !bytes.Equal(got, want) || sec.n != len(want) {
			t.Fatalf("trial %d: section holds %d bytes (n %d), want %d", trial, len(got), sec.n, len(want))
		}
		for i, c := range sec.chunks {
			if cap(c) > 64<<10 || (i < len(sec.chunks)-1 && len(c) != cap(c)) {
				t.Fatalf("trial %d: chunk %d holds %d of %d bytes", trial, i, len(c), cap(c))
			}
		}
	}
}

// encode renders a format-2 payload whole: the head followed by the two
// sections, the bytes storeRaw hands the store as parts.
func (r *rawEntry) encode() ([]byte, error) {
	head, err := r.marshal(len(r.csv), len(r.jsonl))
	if err != nil {
		return nil, err
	}
	return bytes.Join([][]byte{head, r.csv, r.jsonl}, nil), nil
}
