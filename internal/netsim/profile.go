package netsim

import (
	"fmt"
	"sort"
	"strings"
)

// SizeQuirk is a special-cased message size family (Section III.2): "some
// values, such as 1024 for instance, may have special behavior coded into
// the network layers that are nonlinear when compared with close values".
// Benchmarks that only probe powers of two systematically hit such cases and
// mistake the special behaviour for the general one.
type SizeQuirk struct {
	// AlignedTo selects sizes divisible by this value (when > 0).
	AlignedTo int
	// ExactSizes selects specific sizes.
	ExactSizes []int
	// MinSize/MaxSize bound the quirk's applicability (MaxSize 0 = open).
	MinSize, MaxSize int
	// Factor multiplies the operation time for matching sizes.
	Factor float64
	// Reason documents the quirk for reports.
	Reason string
}

// Matches reports whether the quirk applies to a message size.
func (q SizeQuirk) Matches(size int) bool {
	if size < q.MinSize {
		return false
	}
	if q.MaxSize > 0 && size > q.MaxSize {
		return false
	}
	if q.AlignedTo > 0 && size%q.AlignedTo == 0 {
		return true
	}
	for _, s := range q.ExactSizes {
		if s == size {
			return true
		}
	}
	return false
}

// Profile is one machine/network/MPI combination: an ordered list of regimes
// plus size quirks.
type Profile struct {
	Name    string
	Regimes []Regime
	Quirks  []SizeQuirk
}

// Validate checks the profile structure.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("netsim: unnamed profile")
	}
	if len(p.Regimes) == 0 {
		return fmt.Errorf("netsim: profile %s has no regimes", p.Name)
	}
	prev := 0
	for i, r := range p.Regimes {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("netsim: profile %s regime %d: %w", p.Name, i, err)
		}
		last := i == len(p.Regimes)-1
		if last {
			if r.MaxSize != 0 {
				return fmt.Errorf("netsim: profile %s: last regime must be unbounded", p.Name)
			}
			continue
		}
		if r.MaxSize <= prev {
			return fmt.Errorf("netsim: profile %s: regime bounds not increasing", p.Name)
		}
		prev = r.MaxSize
	}
	for _, q := range p.Quirks {
		if q.Factor <= 0 {
			return fmt.Errorf("netsim: profile %s: quirk factor must be positive", p.Name)
		}
	}
	return nil
}

// RegimeFor returns the regime governing a message size. It points into
// p.Regimes, so a per-message lookup copies nothing; callers must not
// modify the regime through it.
func (p *Profile) RegimeFor(size int) *Regime {
	for i := range p.Regimes {
		if r := &p.Regimes[i]; r.MaxSize == 0 || size < r.MaxSize {
			return r
		}
	}
	return &p.Regimes[len(p.Regimes)-1]
}

// Breakpoints returns the regime boundaries (the ground truth the white-box
// analysis should recover).
func (p *Profile) Breakpoints() []float64 {
	var out []float64
	for _, r := range p.Regimes {
		if r.MaxSize > 0 {
			out = append(out, float64(r.MaxSize))
		}
	}
	return out
}

// quirkFactor returns the combined quirk multiplier for a size.
func (p *Profile) quirkFactor(size int) float64 {
	f := 1.0
	for _, q := range p.Quirks {
		if q.Matches(size) {
			f *= q.Factor
		}
	}
	return f
}

// Taurus models the Grid'5000 Taurus cluster of Figure 4: OpenMPI 2.0.1 over
// TCP on 10 Gb Ethernet. Three regimes with the detached (medium-size)
// receive path showing the pronounced extra variability the paper reports,
// and a 1024-byte-aligned slow path in the eager range as the planted
// special-size behaviour.
func Taurus() *Profile {
	return &Profile{
		Name: "taurus-openmpi-tcp-10g",
		Regimes: []Regime{
			{
				Protocol: Eager, MaxSize: 12288,
				SendBase: 1.2e-6, SendPerByte: 0.35e-9,
				RecvBase: 1.5e-6, RecvPerByte: 0.40e-9,
				Latency: 16e-6, GapPerByte: 0.90e-9,
				SendNoise: NoiseModel{Sigma: 0.05, HeavyProb: 0.10, HeavyScale: 0.9},
				RecvNoise: NoiseModel{Sigma: 0.04},
				RTTNoise:  NoiseModel{Sigma: 0.04},
			},
			{
				Protocol: Detached, MaxSize: 65536,
				SendBase: 4.0e-6, SendPerByte: 0.55e-9,
				RecvBase: 6.0e-6, RecvPerByte: 0.65e-9,
				Latency: 16e-6, GapPerByte: 0.95e-9,
				SendNoise: NoiseModel{Sigma: 0.05},
				RecvNoise: NoiseModel{Sigma: 0.10, HeavyProb: 0.25, HeavyScale: 2.5},
				RTTNoise:  NoiseModel{Sigma: 0.06},
			},
			{
				Protocol: Rendezvous, MaxSize: 0,
				SendBase: 9.0e-6, SendPerByte: 0.30e-9,
				RecvBase: 8.0e-6, RecvPerByte: 0.85e-9,
				Latency: 16e-6, GapPerByte: 0.82e-9,
				SendNoise: NoiseModel{Sigma: 0.04},
				RecvNoise: NoiseModel{Sigma: 0.05},
				RTTNoise:  NoiseModel{Sigma: 0.04},
			},
		},
		Quirks: []SizeQuirk{{
			AlignedTo: 1024,
			MinSize:   1024,
			MaxSize:   12287,
			Factor:    1.25,
			Reason:    "TCP stack slow path for kilobyte-aligned eager payloads",
		}},
	}
}

// MyrinetOpenMPI models the OpenMPI-over-Myrinet/GM curve of Figure 3:
// a subtle slope change at 16 KB and the documented protocol change at
// 32 KB.
func MyrinetOpenMPI() *Profile {
	return &Profile{
		Name: "myrinet-gm-openmpi-2007",
		Regimes: []Regime{
			{
				Protocol: Eager, MaxSize: 16384,
				SendBase: 4.0e-6, SendPerByte: 0.8e-9,
				RecvBase: 4.0e-6, RecvPerByte: 0.8e-9,
				Latency: 7e-6, GapPerByte: 3.6e-9,
				SendNoise: NoiseModel{Sigma: 0.03},
				RecvNoise: NoiseModel{Sigma: 0.03},
				RTTNoise:  NoiseModel{Sigma: 0.03},
			},
			{
				// The "hidden" break the paper spots on re-inspection:
				// slightly different slope from 16 KB on.
				Protocol: Eager, MaxSize: 32768,
				SendBase: 6.0e-6, SendPerByte: 1.1e-9,
				RecvBase: 6.0e-6, RecvPerByte: 1.1e-9,
				Latency: 7e-6, GapPerByte: 4.1e-9,
				SendNoise: NoiseModel{Sigma: 0.03},
				RecvNoise: NoiseModel{Sigma: 0.03},
				RTTNoise:  NoiseModel{Sigma: 0.03},
			},
			{
				Protocol: Rendezvous, MaxSize: 0,
				SendBase: 18e-6, SendPerByte: 0.9e-9,
				RecvBase: 18e-6, RecvPerByte: 0.9e-9,
				Latency: 7e-6, GapPerByte: 4.9e-9,
				SendNoise: NoiseModel{Sigma: 0.03},
				RecvNoise: NoiseModel{Sigma: 0.03},
				RTTNoise:  NoiseModel{Sigma: 0.03},
			},
		},
	}
}

// MyrinetGM models the raw Myrinet/GM curve of Figure 3: one regime, lower
// overhead, no MPI-level protocol changes.
func MyrinetGM() *Profile {
	return &Profile{
		Name: "myrinet-gm-raw-2007",
		Regimes: []Regime{
			{
				Protocol: Eager, MaxSize: 0,
				SendBase: 2.0e-6, SendPerByte: 0.4e-9,
				RecvBase: 2.0e-6, RecvPerByte: 0.4e-9,
				Latency: 6e-6, GapPerByte: 3.3e-9,
				SendNoise: NoiseModel{Sigma: 0.02},
				RecvNoise: NoiseModel{Sigma: 0.02},
				RTTNoise:  NoiseModel{Sigma: 0.02},
			},
		},
	}
}

// Profiles returns the registry of network profiles keyed by short name.
func Profiles() map[string]*Profile {
	return map[string]*Profile{
		"taurus":          Taurus(),
		"myrinet-openmpi": MyrinetOpenMPI(),
		"myrinet-gm":      MyrinetGM(),
	}
}

// ProfileByName returns the named profile or an error listing valid names.
func ProfileByName(name string) (*Profile, error) {
	ps := Profiles()
	if p, ok := ps[name]; ok {
		return p, nil
	}
	names := make([]string, 0, len(ps))
	for k := range ps {
		names = append(names, k)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("netsim: unknown profile %q (have %s)", name, strings.Join(names, ", "))
}
