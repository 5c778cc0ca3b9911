package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"opaquebench/internal/stats"
)

// The host a run lands on drifts. On the shared 2-vCPU VM this benchmark
// was calibrated on, the same op took 30% longer a few minutes later, with
// no steal time and no load to show for it, and every workload slowed
// together. So the timed phase pauses its clients every refEvery and times
// a fixed reference kernel, which belongs to the benchmark and so stays the
// same from commit to commit. Every time metric is reported at the host
// speed at which the kernel takes refNominalMs: a time is multiplied by
// scale = refNominalMs / ref, and a rate divided by it, where ref is the
// refQuantile of the run's kernel times. A low quantile rather than the
// median, because a sample that overlaps the workload's last GC cycle or a
// neighbour's burst reads slow; of the quantiles tried on recorded runs,
// the 20th percentile left the narrowest run-to-run spread. The unscaled
// values stay in the result.
const (
	refEvery     = 250 * time.Millisecond
	refNominalMs = 5.0
	refQuantile  = 0.2
	// refWarmSamples are taken before the phase, so even a run of a few
	// ops has a reference.
	refWarmSamples = 4

	refMapSlots   = 1 << 16
	refMapUpdates = 30000
	refBufWords   = 1 << 20 // 8 MiB
	refPasses     = 4

	// refEnv, set to W, makes the program serve reference samples instead
	// of running a workload.
	refEnv = "OPAQUEBENCH_REFERENCE_KERNEL"
)

// refKernel is the reference work of one goroutine: random updates of a
// hash map, the shape of the system's bookkeeping, then streaming passes
// over an 8 MiB buffer, one read per 64-byte line, the shape of its record
// arrays and simulated caches. Of the kernels tried, this pair tracked the
// workloads' drift best.
type refKernel struct {
	m   map[uint64]uint64
	buf []uint64
	sum uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{m: make(map[uint64]uint64, refMapSlots), buf: make([]uint64, refBufWords)}
	// Write every page, or every read would hit the operating system's
	// shared zero page.
	for i := range k.buf {
		k.buf[i] = uint64(i)
	}
	return k
}

func (k *refKernel) run() {
	clear(k.m)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < refMapUpdates; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.m[x&(refMapSlots-1)] += x
	}
	s := uint64(len(k.m))
	for p := 0; p < refPasses; p++ {
		for i := 0; i < len(k.buf); i += 8 {
			s += k.buf[i]
		}
	}
	k.sum += s
}

// serveReferenceIfAsked turns this process into a reference server when
// refEnv is set, and then exits. The kernel runs in a process of its own so
// that its memory stays out of the workload's heap, GC pacing and resident
// set.
func serveReferenceIfAsked() {
	v := os.Getenv(refEnv)
	if v == "" {
		return
	}
	w, err := strconv.Atoi(v)
	if err != nil || w < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: %s=%q: want a worker count\n", refEnv, v)
		os.Exit(2)
	}
	if err := serveReference(w, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference kernel:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveReference runs the kernel on w goroutines at once, as the workloads
// run W workers, for every byte it reads, and answers with the wall time in
// nanoseconds. It returns at the end of its input.
func serveReference(w int, in io.Reader, out io.Writer) error {
	kernels := make([]*refKernel, w)
	for i := range kernels {
		kernels[i] = newRefKernel()
	}
	var req [1]byte
	var resp [8]byte
	for {
		if _, err := io.ReadFull(in, req[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		for _, k := range kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k.run()
			}()
		}
		wg.Wait()
		binary.LittleEndian.PutUint64(resp[:], uint64(time.Since(start)))
		if _, err := out.Write(resp[:]); err != nil {
			return err
		}
	}
}

// reference is the parent's side: a child process of this program serving
// samples, and every sample taken.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser
	// SamplesMs is the kernel time of each sample; Paused is the time the
	// phase's clients were held back for them.
	SamplesMs []float64     `json:"samples_ms"`
	Paused    time.Duration `json:"paused_ns"`
}

func startReference(w int) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(exe)}
	r.cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", refEnv, w))
	r.cmd.Stderr = os.Stderr
	if r.in, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if r.out, err = r.cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return r, nil
}

// sample has the child run the kernel once.
func (r *reference) sample() error {
	start := time.Now()
	var resp [8]byte
	if _, err := r.in.Write([]byte{1}); err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	if _, err := io.ReadFull(r.out, resp[:]); err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	r.SamplesMs = append(r.SamplesMs, time.Duration(binary.LittleEndian.Uint64(resp[:])).Seconds()*1e3)
	r.Paused += time.Since(start)
	return nil
}

// close ends the child and waits for it. Closing again does nothing.
func (r *reference) close() error {
	if r.cmd.ProcessState != nil {
		return nil
	}
	r.in.Close()
	return r.cmd.Wait()
}

// scale turns a time measured in this run into one at the nominal speed.
func (r *reference) scale() float64 {
	return refNominalMs / stats.Quantile(r.SamplesMs, refQuantile)
}

// atNominal rescales a measured metric by its unit: times by scale, rates
// by its inverse. Counts, sizes and shares are left as measured.
func atNominal(v value, scale float64) value {
	switch v.Unit {
	case "s", "ms":
		v.Value *= scale
	case "1/s":
		v.Value /= scale
	}
	return v
}
