package memsim

import (
	"fmt"
	"math/rand/v2"

	"opaquebench/internal/xrand"
)

// KernelParams parametrizes the Figure 6 access kernel:
//
//	for rep in (1..nloops)
//	    for i in (0..size/stride)
//	        access buffer[stride*i]
//
// Size is in bytes, Stride in elements, ElemBytes is the element width
// (the int vs long long int vs vector factor of Section IV.1), and Unroll
// selects the manually unrolled loop body.
type KernelParams struct {
	SizeBytes int
	Stride    int
	ElemBytes int
	NLoops    int
	Unroll    bool
}

// Validate checks the kernel parameters against the buffer.
func (p KernelParams) Validate(buf *Buffer) error {
	if p.SizeBytes <= 0 {
		return fmt.Errorf("memsim: kernel size %d", p.SizeBytes)
	}
	if buf != nil && p.SizeBytes > buf.Size() {
		return fmt.Errorf("memsim: kernel size %d exceeds buffer %d", p.SizeBytes, buf.Size())
	}
	if p.Stride < 1 {
		return fmt.Errorf("memsim: stride %d", p.Stride)
	}
	if p.ElemBytes < 1 {
		return fmt.Errorf("memsim: element size %d", p.ElemBytes)
	}
	if p.NLoops < 1 {
		return fmt.Errorf("memsim: nloops %d", p.NLoops)
	}
	if p.SizeBytes/p.ElemBytes/p.Stride < 1 {
		return fmt.Errorf("memsim: buffer of %d bytes holds no stride-%d element", p.SizeBytes, p.Stride)
	}
	return nil
}

// Accesses returns the total number of element accesses the kernel makes.
func (p KernelParams) Accesses() uint64 {
	iters := uint64(p.SizeBytes / p.ElemBytes / p.Stride)
	return iters * uint64(p.NLoops)
}

// KernelResult is the simulated outcome of one kernel execution.
type KernelResult struct {
	// Accesses is the number of element loads performed.
	Accesses uint64
	// Cycles is the total execution time in core cycles (roofline of the
	// issue time and every transfer interface).
	Cycles float64
	// IssueCycles is the pure load-issue component.
	IssueCycles float64
	// TransferCycles[i] is the line-transfer time of the interface that
	// fills cache level i.
	TransferCycles []float64
	// Fills[i] is the number of lines installed into level i; the final
	// entry counts lines fetched from memory.
	Fills []uint64
	// BoundBy names the binding resource: "issue", a level name, or "mem".
	BoundBy string
	// TLBMisses counts translation misses (0 when the machine's TLB model
	// is disabled).
	TLBMisses uint64
}

// Seconds converts the cycle count at a fixed core frequency.
func (r KernelResult) Seconds(freqHz float64) float64 {
	if freqHz <= 0 {
		return 0
	}
	return r.Cycles / freqHz
}

// BandwidthMBps returns the kernel-visible bandwidth — useful bytes moved
// per second, the metric of Figures 7-12 — given the elapsed seconds.
func (r KernelResult) BandwidthMBps(elemBytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(r.Accesses) * float64(elemBytes) / seconds / 1e6
}

// RunKernel simulates the Figure 6 kernel on machine m against hierarchy h
// and buffer buf: it is RunStream's read-only sum kernel over one buffer,
// so the same executor serves the figures and the campaigns. Like
// RunStream it honours the machine's TLB model when one is enabled.
func RunKernel(m *Machine, h *Hierarchy, buf *Buffer, p KernelParams) (KernelResult, error) {
	return RunStream(m, h, []*Buffer{buf}, p, StreamSum)
}

// ApplyNoise perturbs a simulated duration with the machine's measurement
// noise profile: multiplicative log-normal jitter plus occasional spikes.
func (m *Machine) ApplyNoise(r *rand.Rand, seconds float64) float64 {
	out := xrand.Jitter(r, seconds, m.NoiseSigma)
	if m.SpikeProb > 0 && xrand.Bernoulli(r, m.SpikeProb) {
		out *= 1 + r.Float64()*m.SpikeAmp
	}
	return out
}
