package netsim

import (
	"math"
	"testing"

	"opaquebench/internal/xrand"
)

// refRegimeIndex is a naive model of regime choice: with bounds ascending,
// a message lies in the regime whose index is the number of bounds
// (MaxSize > 0) at or below its size.
func refRegimeIndex(p *Profile, size int) int {
	k := 0
	for _, r := range p.Regimes {
		if r.MaxSize > 0 && r.MaxSize <= size {
			k++
		}
	}
	return k
}

// refSendOverhead spells o_s out per protocol: the copy cost, plus one
// latency for the detached notification, plus a round trip for the
// rendezvous handshake.
func refSendOverhead(r Regime, size int) float64 {
	copyCost := r.SendBase + r.SendPerByte*float64(size)
	switch r.Protocol {
	case Eager:
		return copyCost
	case Detached:
		return copyCost + r.Latency
	case Rendezvous:
		return copyCost + 2*r.Latency
	}
	panic("unknown protocol " + string(r.Protocol))
}

func refRecvOverhead(r Regime, size int) float64 {
	return r.RecvBase + r.RecvPerByte*float64(size)
}

// refOneWay is o_s + L + G*s + o_r.
func refOneWay(r Regime, size int) float64 {
	return refSendOverhead(r, size) + r.Latency + r.GapPerByte*float64(size) + refRecvOverhead(r, size)
}

// TestRegimeMatchesReferenceModel checks RegimeFor and the regime costs
// against the naive model at every breakpoint ±1 byte of every built-in
// profile, plus seeded random sizes: RegimeFor must point at the model's
// regime inside the profile, and SendOverhead, RecvOverhead and OneWay
// must equal the model bit for bit.
func TestRegimeMatchesReferenceModel(t *testing.T) {
	r := xrand.New(3)
	bits := math.Float64bits
	for name, p := range Profiles() {
		sizes := []int{0, 1, 1 << 30}
		for _, b := range p.Breakpoints() {
			sizes = append(sizes, int(b)-1, int(b), int(b)+1)
		}
		for i := 0; i < 200; i++ {
			sizes = append(sizes, xrand.LogUniformInt(r, 1, 1<<24))
		}
		for _, size := range sizes {
			want := &p.Regimes[refRegimeIndex(p, size)]
			got := p.RegimeFor(size)
			if got != want {
				t.Fatalf("%s: RegimeFor(%d) = %s regime below %d, want %s regime below %d",
					name, size, got.Protocol, got.MaxSize, want.Protocol, want.MaxSize)
			}
			if g, w := got.SendOverhead(size), refSendOverhead(*want, size); bits(g) != bits(w) {
				t.Fatalf("%s: SendOverhead(%d) = %v, model %v", name, size, g, w)
			}
			if g, w := got.RecvOverhead(size), refRecvOverhead(*want, size); bits(g) != bits(w) {
				t.Fatalf("%s: RecvOverhead(%d) = %v, model %v", name, size, g, w)
			}
			if g, w := got.OneWay(size), refOneWay(*want, size); bits(g) != bits(w) {
				t.Fatalf("%s: OneWay(%d) = %v, model %v", name, size, g, w)
			}
		}
	}
}
