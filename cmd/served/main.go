// Command served is the campaign service daemon: it keeps the suite
// orchestrator resident behind an HTTP/JSON API so many clients share one
// worker budget and one content-addressed result cache. Suites are
// submitted as the exact JSON spec cmd/suite takes as a file:
//
//	curl -d @suite.json localhost:8080/v1/suites
//	curl localhost:8080/v1/jobs/j1
//	curl localhost:8080/v1/jobs/j1/events          # NDJSON live tail
//	curl localhost:8080/v1/jobs/j1/results/<name>  # byte-identical CSV
//
// SIGINT/SIGTERM trigger a graceful drain: new submissions get 503, queued
// jobs are canceled, running suites finish, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"opaquebench/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "served:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	dataDir := fs.String("data-dir", "served-data", "directory for per-job outputs and the shared cache")
	cacheStore := fs.String("cache-store", "", "the shared result cache's store file (default data-dir/cache.store)")
	workers := fs.Int("workers", 0, "global worker budget across all running suites (0 = GOMAXPROCS)")
	slots := fs.Int("slots", 2, "suite jobs allowed to run concurrently")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for running jobs")
	quiet := fs.Bool("q", false, "suppress log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logw := io.Writer(os.Stderr)
	if *quiet {
		logw = nil
	}
	srv := serve.New(serve.Config{
		Workers:    *workers,
		Slots:      *slots,
		DataDir:    *dataDir,
		CacheStore: *cacheStore,
		Log:        logw,
	})

	// Signals are caught before the listening line is printed, so a
	// supervisor that signals as soon as it reads that line gets a drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "served: listening on http://%s (workers %d, slots %d, cache %s)\n",
		ln.Addr(), srv.Budget().Cap(), *slots, srv.CacheStore())

	httpSrv := &http.Server{Handler: srv.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	// Drain first so in-flight event streams see their jobs finish, then
	// close the listener and any remaining connections.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "served: drain: %v\n", err)
	}
	// The drain finished every running job, so the shared cache can flush
	// its index and close.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "served: close cache: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "served: shut down cleanly")
	return nil
}
