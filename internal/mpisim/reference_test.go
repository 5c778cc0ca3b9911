package mpisim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"opaquebench/internal/netsim"
	"opaquebench/internal/xrand"
)

// refMsg is one entry of the reference model's message log.
type refMsg struct {
	from, to, size int
	arrive         float64
	received       bool
}

// refGroup is a deliberately naive model of Group. It keeps one flat,
// append-only message log in send order and finds each receive's message
// by a linear scan; it picks a message's regime from the explicit size
// range [previous bound, own bound) and spells out the LogGP costs; and it
// writes the four collectives out plainly. It shares no code with Group
// beyond the profile's parameters and the xrand jitter stream, so an
// optimization of Group's queues, regime lookup or schedules that changes
// any result disagrees with it.
type refGroup struct {
	p      *netsim.Profile
	clocks []float64
	log    []refMsg
	// done is the length of the log's prefix whose messages were all
	// received; scans start there, which only skips received messages.
	done  int
	bytes int
}

func newRefGroup(p *netsim.Profile, n int) *refGroup {
	return &refGroup{p: p, clocks: make([]float64, n)}
}

func (g *refGroup) jitter(seed uint64, scale float64) {
	r := xrand.NewDerived(seed, "mpisim/group-jitter")
	for i := range g.clocks {
		g.clocks[i] += r.Float64() * scale
	}
}

func (g *refGroup) maxClock() float64 {
	m := math.Inf(-1)
	for _, c := range g.clocks {
		m = math.Max(m, c)
	}
	return m
}

// regime returns the regime whose size range holds size: a regime covers
// [previous regime's MaxSize, own MaxSize), and MaxSize 0 is unbounded.
func (g *refGroup) regime(size int) netsim.Regime {
	lo := 0
	for _, r := range g.p.Regimes {
		if lo <= size && (r.MaxSize == 0 || size <= r.MaxSize-1) {
			return r
		}
		lo = r.MaxSize
	}
	panic(fmt.Sprintf("no regime holds %d bytes", size))
}

// sendCPU is o_s: the copy cost, plus one latency for the detached
// notification or a round trip for the rendezvous handshake.
func sendCPU(r netsim.Regime, size int) float64 {
	t := r.SendBase + r.SendPerByte*float64(size)
	switch r.Protocol {
	case netsim.Detached:
		t += r.Latency
	case netsim.Rendezvous:
		t += 2 * r.Latency
	}
	return t
}

// recvCPU is o_r for a message that has arrived.
func recvCPU(r netsim.Regime, size int) float64 {
	return r.RecvBase + r.RecvPerByte*float64(size)
}

func (g *refGroup) validRank(r int) bool { return r >= 0 && r < len(g.clocks) }

func (g *refGroup) send(from, to, size int) error {
	if !g.validRank(from) || !g.validRank(to) || from == to {
		return fmt.Errorf("bad endpoints %d -> %d", from, to)
	}
	r := g.regime(size)
	end := g.clocks[from] + sendCPU(r, size)
	g.log = append(g.log, refMsg{from: from, to: to, size: size,
		arrive: end + r.Latency + r.GapPerByte*float64(size)})
	g.clocks[from] = end
	g.bytes += size
	return nil
}

// recv receives the oldest unreceived message from -> to.
func (g *refGroup) recv(to, from int) error {
	if !g.validRank(from) || !g.validRank(to) || from == to {
		return fmt.Errorf("bad endpoints %d -> %d", from, to)
	}
	for i := g.done; i < len(g.log); i++ {
		m := &g.log[i]
		if m.received || m.from != from || m.to != to {
			continue
		}
		m.received = true
		for g.done < len(g.log) && g.log[g.done].received {
			g.done++
		}
		if m.arrive > g.clocks[to] {
			g.clocks[to] = m.arrive
		}
		g.clocks[to] += recvCPU(g.regime(m.size), m.size)
		return nil
	}
	return fmt.Errorf("rank %d has no message from %d", to, from)
}

// bcast runs the binomial tree in root-relative rank space: in the round
// of span s, every relative rank below s holds the payload and sends it to
// the relative rank s above it; then every receiver takes its message.
func (g *refGroup) bcast(root, size int) (float64, error) {
	n := len(g.clocks)
	if !g.validRank(root) {
		return 0, fmt.Errorf("bad root %d", root)
	}
	start := g.maxClock()
	abs := func(rel int) int { return (root + rel) % n }
	for span := 1; span < n; span *= 2 {
		for rel := 0; rel < span && rel+span < n; rel++ {
			if err := g.send(abs(rel), abs(rel+span), size); err != nil {
				return 0, err
			}
		}
		for rel := 0; rel < span && rel+span < n; rel++ {
			if err := g.recv(abs(rel+span), abs(rel)); err != nil {
				return 0, err
			}
		}
	}
	return g.maxClock() - start, nil
}

// barrier gathers a zero-byte message from every rank at rank 0, in rank
// order, broadcasts a zero-byte message from rank 0, and lifts every clock
// to the latest one.
func (g *refGroup) barrier() (float64, error) {
	start := g.maxClock()
	for r := 1; r < len(g.clocks); r++ {
		if err := g.send(r, 0, 0); err != nil {
			return 0, err
		}
	}
	for r := 1; r < len(g.clocks); r++ {
		if err := g.recv(0, r); err != nil {
			return 0, err
		}
	}
	if _, err := g.bcast(0, 0); err != nil {
		return 0, err
	}
	m := g.maxClock()
	for r := range g.clocks {
		g.clocks[r] = m
	}
	return m - start, nil
}

// ring splits size into n chunks (n-1 of size/n bytes, the last the
// remainder) and runs 2(n-1) steps; in step s rank r forwards chunk
// (r-s) mod n to its right neighbour, then every rank receives from its
// left neighbour.
func (g *refGroup) ring(size int) (float64, error) {
	n := len(g.clocks)
	if size < n {
		return 0, fmt.Errorf("ring allreduce of %d bytes across %d ranks", size, n)
	}
	chunks := make([]int, n)
	for i := range chunks {
		chunks[i] = size / n
	}
	chunks[n-1] = size - (n-1)*(size/n)
	start := g.maxClock()
	for step := 0; step < 2*(n-1); step++ {
		for r := 0; r < n; r++ {
			c := chunks[((r-step)%n+n)%n]
			if err := g.send(r, (r+1)%n, c); err != nil {
				return 0, err
			}
		}
		for r := 0; r < n; r++ {
			if err := g.recv(r, (r+n-1)%n); err != nil {
				return 0, err
			}
		}
	}
	return g.maxClock() - start, nil
}

// tree reduces to rank 0 over a binomial tree — in the round of span s,
// from the largest power of two below n down to 1, rank r+s sends its
// whole payload to rank r — and then broadcasts from rank 0.
func (g *refGroup) tree(size int) (float64, error) {
	n := len(g.clocks)
	start := g.maxClock()
	top := 1
	for top*2 < n {
		top *= 2
	}
	for span := top; span >= 1; span /= 2 {
		for r := 0; r < span && r+span < n; r++ {
			if err := g.send(r+span, r, size); err != nil {
				return 0, err
			}
		}
		for r := 0; r < span && r+span < n; r++ {
			if err := g.recv(r, r+span); err != nil {
				return 0, err
			}
		}
	}
	if _, err := g.bcast(0, size); err != nil {
		return 0, err
	}
	return g.maxClock() - start, nil
}

func (g *refGroup) allreduce(size, switchBytes int) (float64, error) {
	if switchBytes > 0 && size < switchBytes {
		return g.tree(size)
	}
	return g.ring(size)
}

// refOp is one step of a property-test case.
type refOp struct {
	kind        string // jitter, bcast, barrier, ring, tree, allreduce
	root, size  int
	switchBytes int
	scale       float64
}

func (op refOp) String() string {
	return fmt.Sprintf("%s(root=%d size=%d switch=%d scale=%g)", op.kind, op.root, op.size, op.switchBytes, op.scale)
}

func (op refOp) onGroup(g *Group) (float64, error) {
	switch op.kind {
	case "jitter":
		g.Jitter(op.scale)
		return 0, nil
	case "bcast":
		return g.Bcast(op.root, op.size)
	case "barrier":
		return g.Barrier()
	case "ring":
		return g.RingAllreduce(op.size)
	case "tree":
		return g.TreeAllreduce(op.size)
	case "allreduce":
		return g.Allreduce(op.size, op.switchBytes)
	}
	panic("unknown op " + op.kind)
}

func (op refOp) onRef(g *refGroup, seed uint64) (float64, error) {
	switch op.kind {
	case "jitter":
		g.jitter(seed, op.scale)
		return 0, nil
	case "bcast":
		return g.bcast(op.root, op.size)
	case "barrier":
		return g.barrier()
	case "ring":
		return g.ring(op.size)
	case "tree":
		return g.tree(op.size)
	case "allreduce":
		return g.allreduce(op.size, op.switchBytes)
	}
	panic("unknown op " + op.kind)
}

// sameAsRef reports the first difference between a group and the model:
// every rank clock, TotalBytesSent and MaxClock, compared bit for bit.
func sameAsRef(g *Group, ref *refGroup) error {
	for r := range ref.clocks {
		if math.Float64bits(g.Now(r)) != math.Float64bits(ref.clocks[r]) {
			return fmt.Errorf("rank %d clock %v, reference %v", r, g.Now(r), ref.clocks[r])
		}
	}
	if g.TotalBytesSent() != ref.bytes {
		return fmt.Errorf("TotalBytesSent %d, reference %d", g.TotalBytesSent(), ref.bytes)
	}
	if math.Float64bits(g.MaxClock()) != math.Float64bits(ref.maxClock()) {
		return fmt.Errorf("MaxClock %v, reference %v", g.MaxClock(), ref.maxClock())
	}
	return nil
}

// dirty leaves g mid-use the way a failed or abandoned trial would: some
// messages received, others still queued on several pairs, bytes counted
// and clocks advanced.
func dirty(g *Group, r *rand.Rand) {
	n := g.Size()
	for i := 0; i < 3*n; i++ {
		from, to := r.IntN(n), r.IntN(n)
		if from == to {
			continue
		}
		_ = g.send(from, to, r.IntN(70000))
		if r.IntN(3) == 0 {
			_ = g.recv(to, from)
		}
	}
	_, _ = g.Bcast(n, 1) // fails: bad root
}

// checkAgainstRef runs ops on a fresh group, on a dirtied group reset to
// the same seed, and on the reference model, and fails at the first op
// whose duration, error or state differs.
func checkAgainstRef(t *testing.T, p *netsim.Profile, n int, seed uint64, ops []refOp) {
	t.Helper()
	fresh, err := NewGroup(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewGroup(p, n, seed^0x5bd1e995)
	if err != nil {
		t.Fatal(err)
	}
	dirty(reused, xrand.New(seed))
	reused.Reset(seed)
	ref := newRefGroup(p, n)
	for i, op := range ops {
		want, wantErr := op.onRef(ref, seed)
		for _, c := range []struct {
			name string
			g    *Group
		}{{"fresh", fresh}, {"reset", reused}} {
			got, gotErr := op.onGroup(c.g)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s n=%d seed=%d %s group: op %d %v: error %v, reference error %v", p.Name, n, seed, c.name, i, op, gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d seed=%d %s group: op %d %v: duration %v, reference %v", p.Name, n, seed, c.name, i, op, got, want)
			}
			if err := sameAsRef(c.g, ref); err != nil {
				t.Fatalf("%s n=%d seed=%d %s group: after op %d %v: %v", p.Name, n, seed, c.name, i, op, err)
			}
		}
	}
}

// boundarySizes returns every regime breakpoint of p ±1 byte, the same
// for ring chunks (n times a breakpoint ±1), the 16 KiB tree/ring switch
// ±1, and the smallest sizes, sorted and deduplicated.
func boundarySizes(p *netsim.Profile, n int) []int {
	set := map[int]bool{0: true, 1: true, n - 1: true, n: true}
	edges := []int{16384}
	for _, b := range p.Breakpoints() {
		edges = append(edges, int(b), n*int(b))
	}
	for _, e := range edges {
		set[e-1], set[e], set[e+1] = true, true, true
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func sortedProfiles() []*netsim.Profile {
	ps := netsim.Profiles()
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*netsim.Profile, len(names))
	for i, name := range names {
		out[i] = ps[name]
	}
	return out
}

// sizeOps runs every collective at one size: bcast from the first and last
// root, barrier, ring, tree and Allreduce with the switch off and at 16 KiB.
func sizeOps(n, size int) []refOp {
	return []refOp{
		{kind: "bcast", root: 0, size: size},
		{kind: "bcast", root: n - 1, size: size},
		{kind: "barrier"},
		{kind: "ring", size: size},
		{kind: "tree", size: size},
		{kind: "allreduce", size: size, switchBytes: 0},
		{kind: "allreduce", size: size, switchBytes: 16384},
	}
}

// TestGroupMatchesReferenceModel is the seeded property test of Group
// against refGroup: every collective at every size on a regime boundary
// (±1 byte) of every built-in profile, at a ladder of rank counts; and at
// every rank count from 2 to 64, a broadcast from every root and every
// collective at sizes drawn from the boundary set. Each case runs on a
// fresh group and on a used group after Reset, chained so queues are
// reused across collectives, and must agree with the model bit for bit
// after every op.
func TestGroupMatchesReferenceModel(t *testing.T) {
	r := xrand.New(20170529)
	jitter := func() refOp { return refOp{kind: "jitter", scale: []float64{0, 1e-6, 3e-5}[r.IntN(3)]} }
	for _, p := range sortedProfiles() {
		for _, n := range []int{2, 3, 4, 5, 7, 8, 16, 33, 64} {
			ops := []refOp{jitter()}
			for _, size := range boundarySizes(p, n) {
				ops = append(ops, sizeOps(n, size)...)
			}
			checkAgainstRef(t, p, n, r.Uint64(), ops)
		}
		for n := 2; n <= 64; n++ {
			sizes := boundarySizes(p, n)
			ops := []refOp{jitter()}
			for root := 0; root < n; root++ {
				ops = append(ops, refOp{kind: "bcast", root: root, size: sizes[r.IntN(len(sizes))]})
			}
			for k := 0; k < 2; k++ {
				ops = append(ops, sizeOps(n, sizes[r.IntN(len(sizes))])...)
			}
			checkAgainstRef(t, p, n, r.Uint64(), ops)
		}
	}
}

// TestGroupPointToPointMatchesReference checks the transport itself with
// random scripts of sends and receives on random pairs, so several
// messages of different sizes wait on one pair at once and FIFO order
// decides the result. Bad endpoints and empty queues must fail in both. A
// Reset mid-script must match a fresh model.
func TestGroupPointToPointMatchesReference(t *testing.T) {
	r := xrand.New(7)
	for _, p := range sortedProfiles() {
		for _, n := range []int{2, 3, 5, 9} {
			seed := r.Uint64()
			g, err := NewGroup(p, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGroup(p, n)
			sizes := boundarySizes(p, n)
			for step := 0; step < 2000; step++ {
				from, to := r.IntN(n+1)-r.IntN(2), r.IntN(n+1)
				var got, want error
				switch k := r.IntN(20); {
				case k == 0:
					g.Reset(seed)
					ref = newRefGroup(p, n)
					continue
				case k < 10:
					size := sizes[r.IntN(len(sizes))]
					got, want = g.send(from, to, size), ref.send(from, to, size)
				default:
					got, want = g.recv(to, from), ref.recv(to, from)
				}
				if (got != nil) != (want != nil) {
					t.Fatalf("%s n=%d step %d (%d -> %d): error %v, reference error %v", p.Name, n, step, from, to, got, want)
				}
				if err := sameAsRef(g, ref); err != nil {
					t.Fatalf("%s n=%d step %d (%d -> %d): %v", p.Name, n, step, from, to, err)
				}
			}
		}
	}
}
