package mpisim

import (
	"math"
	"testing"

	"opaquebench/internal/netsim"
)

func newGroup(t *testing.T, n int) *Group {
	t.Helper()
	g, err := NewGroup(netsim.MyrinetGM(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGroupValidates(t *testing.T) {
	if _, err := NewGroup(nil, 4, 1); err == nil {
		t.Fatal("nil profile accepted")
	}
	if _, err := NewGroup(netsim.MyrinetGM(), 1, 1); err == nil {
		t.Fatal("1-rank group accepted")
	}
}

func TestBcastReachesEveryRank(t *testing.T) {
	g := newGroup(t, 8)
	d, err := g.Bcast(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	// Every non-root rank's clock must have advanced (it received data).
	for r := 1; r < g.Size(); r++ {
		if g.Now(r) <= 0 {
			t.Fatalf("rank %d never received", r)
		}
	}
}

func TestBcastLogarithmicRounds(t *testing.T) {
	// A binomial tree completes in ceil(log2(n)) rounds: doubling the rank
	// count should add roughly one one-way time, not double the duration.
	dur := func(n int) float64 {
		g := newGroup(t, n)
		d, err := g.Bcast(0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d4, d8, d16 := dur(4), dur(8), dur(16)
	oneWay := netsim.MyrinetGM().RegimeFor(8192).OneWay(8192)
	if inc := d8 - d4; inc < oneWay*0.5 || inc > oneWay*1.5 {
		t.Fatalf("4->8 ranks added %v, want ~%v (one round)", inc, oneWay)
	}
	if inc := d16 - d8; inc < oneWay*0.5 || inc > oneWay*1.5 {
		t.Fatalf("8->16 ranks added %v, want ~%v (one round)", inc, oneWay)
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	g := newGroup(t, 6)
	if _, err := g.Bcast(3, 1024); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Size(); r++ {
		if r != 3 && g.Now(r) <= 0 {
			t.Fatalf("rank %d missed the broadcast from root 3", r)
		}
	}
	if _, err := g.Bcast(99, 1024); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	g := newGroup(t, 5)
	g.Jitter(0.001) // skewed start
	if _, err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	ref := g.Now(0)
	for r := 1; r < g.Size(); r++ {
		if math.Abs(g.Now(r)-ref) > 1e-12 {
			t.Fatalf("rank %d clock %v != %v after barrier", r, g.Now(r), ref)
		}
	}
}

func TestRingAllreduceBandwidthOptimal(t *testing.T) {
	// For large messages the ring moves 2*(n-1)/n of the data per rank:
	// duration should grow far slower than linearly with n, and scale
	// roughly linearly with size.
	dur := func(n, size int) float64 {
		g := newGroup(t, n)
		d, err := g.RingAllreduce(size)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1M4 := dur(4, 1<<20)
	d1M8 := dur(8, 1<<20)
	if d1M8 > d1M4*1.6 {
		t.Fatalf("ring allreduce not bandwidth-optimal: n=4 %v, n=8 %v", d1M4, d1M8)
	}
	d2M4 := dur(4, 2<<20)
	if r := d2M4 / d1M4; r < 1.6 || r > 2.4 {
		t.Fatalf("size scaling ratio = %v, want ~2", r)
	}
}

func TestRingAllreduceTinyMessageIsExplicitError(t *testing.T) {
	// The old behavior silently clamped size up to the rank count; the
	// model now refuses to invent bytes and leaves the rounding (plus its
	// annotation) to the engine layer.
	g := newGroup(t, 4)
	if _, err := g.RingAllreduce(1); err == nil {
		t.Fatal("undersized allreduce accepted")
	}
	if _, err := g.RingAllreduce(4); err != nil {
		t.Fatalf("size == ranks rejected: %v", err)
	}
}

func TestGroupSendRecvErrors(t *testing.T) {
	g := newGroup(t, 3)
	if err := g.send(0, 0, 10); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := g.send(0, 9, 10); err == nil {
		t.Fatal("bad destination accepted")
	}
	if err := g.recv(1, 0); err == nil {
		t.Fatal("recv without send accepted")
	}
}

func TestGroupMaxClock(t *testing.T) {
	g := newGroup(t, 3)
	if g.MaxClock() != 0 {
		t.Fatal("fresh group clock")
	}
	if err := g.send(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if g.MaxClock() <= 0 {
		t.Fatal("clock did not advance")
	}
}

// TestGroupResetMatchesNewGroup runs each collective — including ones that
// fail, and sends left partly received — on a group, resets it, and requires
// the reset group to produce exactly what NewGroup with the same seed
// produces: every duration, rank clock and byte count, bit for bit.
func TestGroupResetMatchesNewGroup(t *testing.T) {
	const n, seed = 6, 99
	before := map[string]func(g *Group) error{
		"bcast":         func(g *Group) error { _, err := g.Bcast(2, 5000); return err },
		"bcast-badroot": func(g *Group) error { _, err := g.Bcast(n, 5000); return err },
		"barrier":       func(g *Group) error { _, err := g.Barrier(); return err },
		"ring":          func(g *Group) error { _, err := g.RingAllreduce(70000); return err },
		"ring-tiny":     func(g *Group) error { _, err := g.RingAllreduce(n - 1); return err },
		"tree":          func(g *Group) error { _, err := g.TreeAllreduce(100); return err },
		"allreduce":     func(g *Group) error { _, err := g.Allreduce(20000, 16384); return err },
		"half-received": func(g *Group) error {
			for _, size := range []int{300, 40000, 7} {
				if err := g.send(1, 2, size); err != nil {
					return err
				}
			}
			return g.recv(2, 1)
		},
	}
	probe := func(g *Group) []float64 {
		g.Jitter(1e-5)
		var out []float64
		for _, f := range []func() (float64, error){
			func() (float64, error) { return g.Bcast(3, 12288) },
			func() (float64, error) { return g.Allreduce(1000, 16384) },
			func() (float64, error) { return g.Allreduce(100000, 16384) },
			func() (float64, error) { return g.Barrier() },
		} {
			d, err := f()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		for r := 0; r < g.Size(); r++ {
			out = append(out, g.Now(r))
		}
		return append(out, float64(g.TotalBytesSent()), g.MaxClock())
	}
	fresh, err := NewGroup(netsim.Taurus(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := probe(fresh)
	for name, run := range before {
		g, err := NewGroup(netsim.Taurus(), n, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Jitter(3e-6)
		_ = run(g) // the failing cases fail on purpose
		g.Reset(seed)
		got := probe(g)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("after %s and Reset: probe value %d = %v, NewGroup gives %v", name, i, got[i], want[i])
			}
		}
	}
}
