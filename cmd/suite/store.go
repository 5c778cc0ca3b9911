package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// The store subcommand is the CLI face of the embedded result store
// (internal/store): the single-file, crash-recoverable, queryable cache
// every suite run reads and writes. Everything here operates on metadata
// and frames; no subcommand ever rewrites an entry's payload bytes.

const storeUsage = `Usage: suite store <subcommand> [flags] <store-file> [args]

Subcommands:
  import   copy a legacy cache directory into the store byte-for-byte
           (-run pins the imported keys as a named run)
  ls       list live entries, filtered by metadata (suite, campaign,
           engine, key prefix, round, pinning run, time window, env)
  pin      pin keys (full or unique prefix) under a run name
  unpin    drop a run's pin, releasing its refcounts
  runs     list pinned runs in first-pin order
  chain    print the provenance chain (adaptive rounds) ending at a key
  gc       tombstone every entry no pinned run or round chain keeps alive
  compact  rewrite the log dropping superseded and tombstoned frames
  verify   re-read the whole log and re-verify every frame checksum

Run "suite store <subcommand> -h" for the subcommand's flags.
`

func runStore(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("missing store subcommand\n\n%s", storeUsage)
	}
	switch args[0] {
	case "import":
		return storeImport(args[1:], stdout)
	case "ls":
		return storeLs(args[1:], stdout)
	case "pin":
		return storePin(args[1:], stdout)
	case "unpin":
		return storeUnpin(args[1:], stdout)
	case "runs":
		return storeRuns(args[1:], stdout)
	case "chain":
		return storeChain(args[1:], stdout)
	case "gc":
		return storeGC(args[1:], stdout)
	case "compact":
		return storeCompact(args[1:], stdout)
	case "verify":
		return storeVerify(args[1:], stdout)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(stdout, storeUsage)
		return nil
	}
	return fmt.Errorf("unknown store subcommand %q\n\n%s", args[0], storeUsage)
}

// storeFlags builds a subcommand flag set whose positional arguments start
// with the store path.
func storeFlags(name, args, summary string) *flag.FlagSet {
	fs := flag.NewFlagSet("suite store "+name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: suite store %s [flags] %s\n\n%s\n", name, args, summary)
		var hasFlags bool
		fs.VisitAll(func(*flag.Flag) { hasFlags = true })
		if hasFlags {
			fmt.Fprint(fs.Output(), "\nFlags:\n")
			fs.PrintDefaults()
		}
	}
	return fs
}

// openStore opens the subcommand's positional store, read-only for the
// inspection subcommands.
func openStore(fs *flag.FlagSet, minArgs, maxArgs int, readOnly bool) (*store.Store, error) {
	if fs.NArg() < minArgs || fs.NArg() > maxArgs {
		return nil, fmt.Errorf("want %d-%d arguments starting with the store file, got %d", minArgs, maxArgs, fs.NArg())
	}
	return store.Open(fs.Arg(0), store.Options{ReadOnly: readOnly})
}

// resolveKey expands a full key or unique prefix to the live entry's key.
func resolveKey(st *store.Store, arg string) (string, error) {
	if st.Has(arg) {
		return arg, nil
	}
	matches := st.Query(store.Query{KeyPrefix: arg})
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("no live entry matches key %q", arg)
	case 1:
		return matches[0].Key, nil
	}
	return "", fmt.Errorf("key prefix %q is ambiguous (%d matches)", arg, len(matches))
}

func storeImport(args []string, stdout io.Writer) error {
	fs := storeFlags("import", "<store-file> <legacy-dir>",
		"Copy every entry of a legacy cache directory (<key>.json files) into the store, payload bytes preserved.")
	run := fs.String("run", "", "pin the imported keys as this named run (GC-proof, visible to compare -trend)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 2, 2, false)
	if err != nil {
		return err
	}
	defer st.Close()
	keys, err := suite.ImportDirToStore(fs.Arg(1), st)
	if err != nil {
		return err
	}
	if *run != "" {
		if err := st.Pin(*run, keys...); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "imported %d entries from %s", len(keys), fs.Arg(1))
	if *run != "" {
		fmt.Fprintf(stdout, ", pinned as %q", *run)
	}
	fmt.Fprintln(stdout)
	return nil
}

// envFilter collects repeatable -env key=value filters.
type envFilter map[string]string

func (f envFilter) String() string { return "" }
func (f envFilter) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	f[k] = v
	return nil
}

func storeLs(args []string, stdout io.Writer) error {
	fs := storeFlags("ls", "<store-file>",
		"List live entries in log (history) order, filtered by metadata.")
	var q store.Query
	env := envFilter{}
	fs.StringVar(&q.Suite, "suite", "", "match the suite name")
	fs.StringVar(&q.Campaign, "campaign", "", "match the campaign name")
	fs.StringVar(&q.Engine, "engine", "", "match the engine name")
	fs.StringVar(&q.KeyPrefix, "key", "", "match keys by prefix")
	fs.StringVar(&q.Run, "pinned-by", "", "restrict to keys pinned by this run")
	round := fs.Int("round", -1, "match the adaptive round index exactly (0 = static entries; -1 = any)")
	since := fs.String("since", "", "lower time-of-run bound, RFC 3339 (inclusive)")
	until := fs.String("until", "", "upper time-of-run bound, RFC 3339 (exclusive)")
	fs.Var(env, "env", "require an environment descriptor, key=value (repeatable)")
	long := fs.Bool("l", false, "print full keys and environment descriptors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(env) > 0 {
		q.Env = env
	}
	if *round >= 0 {
		q.Round = round
	}
	var err error
	if q.Since, err = parseTime(*since); err != nil {
		return fmt.Errorf("-since: %w", err)
	}
	if q.Until, err = parseTime(*until); err != nil {
		return fmt.Errorf("-until: %w", err)
	}
	st, err := openStore(fs, 1, 1, true)
	if err != nil {
		return err
	}
	defer st.Close()
	metas := st.Query(q)
	for _, m := range metas {
		key := short(m.Key)
		if *long {
			key = m.Key
		}
		when := "-"
		if !m.When().IsZero() {
			when = m.When().UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(stdout, "%s  %-12s %-12s %-9s round %d  %s  %6d bytes\n",
			key, m.Suite, m.Campaign, m.Engine, m.Round, when, m.Size)
		if *long && len(m.Env) > 0 {
			envKeys := make([]string, 0, len(m.Env))
			for k := range m.Env {
				envKeys = append(envKeys, k)
			}
			sort.Strings(envKeys)
			for _, k := range envKeys {
				fmt.Fprintf(stdout, "    env %s=%s\n", k, m.Env[k])
			}
		}
	}
	fmt.Fprintf(stdout, "%d entries\n", len(metas))
	return nil
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, s)
}

func storePin(args []string, stdout io.Writer) error {
	fs := storeFlags("pin", "<store-file> <run> <key>...",
		"Pin keys (full or unique prefix) under a run name; repinning a run replaces its key set.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 3, 1<<20, false)
	if err != nil {
		return err
	}
	defer st.Close()
	keys := make([]string, 0, fs.NArg()-2)
	for _, arg := range fs.Args()[2:] {
		key, err := resolveKey(st, arg)
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	if err := st.Pin(fs.Arg(1), keys...); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pinned %d keys as %q\n", len(keys), fs.Arg(1))
	return nil
}

func storeUnpin(args []string, stdout io.Writer) error {
	fs := storeFlags("unpin", "<store-file> <run>",
		"Drop a run's pin; its entries become reclaimable by gc unless another run holds them.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 2, 2, false)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Unpin(fs.Arg(1)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "unpinned %q\n", fs.Arg(1))
	return nil
}

func storeRuns(args []string, stdout io.Writer) error {
	fs := storeFlags("runs", "<store-file>",
		"List pinned runs in first-pin order — the history compare -trend walks.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 1, 1, true)
	if err != nil {
		return err
	}
	defer st.Close()
	pins := st.Pins()
	for _, p := range pins {
		fmt.Fprintf(stdout, "%-20s %d keys\n", p.Run, len(p.Keys))
	}
	fmt.Fprintf(stdout, "%d runs\n", len(pins))
	return nil
}

func storeChain(args []string, stdout io.Writer) error {
	fs := storeFlags("chain", "<store-file> <key>",
		"Print the provenance chain ending at a key, seed round first.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 2, 2, true)
	if err != nil {
		return err
	}
	defer st.Close()
	key, err := resolveKey(st, fs.Arg(1))
	if err != nil {
		return err
	}
	chain, err := st.Chain(key)
	if err != nil {
		return err
	}
	for _, m := range chain {
		fmt.Fprintf(stdout, "round %d  %s  %s/%s  %d bytes\n",
			m.Round, short(m.Key), m.Suite, m.Campaign, m.Size)
	}
	return nil
}

func storeGC(args []string, stdout io.Writer) error {
	fs := storeFlags("gc", "<store-file>",
		"Tombstone every entry no pinned run (or its provenance chain) keeps alive.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 1, 1, false)
	if err != nil {
		return err
	}
	defer st.Close()
	dead, err := st.GC()
	if err != nil {
		return err
	}
	for _, key := range dead {
		fmt.Fprintf(stdout, "reclaimed %s\n", short(key))
	}
	fmt.Fprintf(stdout, "%d entries reclaimed, %d live\n", len(dead), st.Len())
	return nil
}

func storeCompact(args []string, stdout io.Writer) error {
	fs := storeFlags("compact", "<store-file>",
		"Rewrite the log atomically, dropping superseded and tombstoned frames.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 1, 1, false)
	if err != nil {
		return err
	}
	defer st.Close()
	before := st.LogSize()
	if err := st.Compact(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "compacted %d -> %d bytes (%d live entries)\n", before, st.LogSize(), st.Len())
	return nil
}

func storeVerify(args []string, stdout io.Writer) error {
	fs := storeFlags("verify", "<store-file>",
		"Re-read the whole log, re-verify every frame checksum, cross-check the in-memory state.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(fs, 1, 1, true)
	if err != nil {
		return err
	}
	defer st.Close()
	rep, err := st.Verify()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ok: %d frames (%d entries, %d tombstones, %d pins, %d unpins), %d live, %d runs, %d bytes\n",
		rep.Frames, rep.Entries, rep.Tombstones, rep.PinFrames, rep.UnpinFrames, rep.Live, rep.Pinned, rep.Bytes)
	return nil
}
