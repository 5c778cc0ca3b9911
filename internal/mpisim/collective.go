package mpisim

import (
	"fmt"
	"math/rand/v2"

	"opaquebench/internal/netsim"
	"opaquebench/internal/xrand"
)

// Group is an N-rank communicator for collective operations, generalizing
// the two-rank Comm. PMB — the opaque suite of Section II.B — measures
// exactly such collectives; implementing them over the same regime
// parameters lets campaigns characterize them white-box style.
//
// A Group is reusable: Reset returns it to the state NewGroup builds, and
// keeps every buffer, so a collective trial on a reset group allocates
// nothing.
type Group struct {
	profile *netsim.Profile
	clocks  []float64
	// inbox[r] holds the in-flight messages destined to rank r, in send
	// order. The collectives keep at most one message per inbox, so a
	// receive scans a handful of entries, and memory and Reset stay O(n).
	inbox [][]message
	seed  uint64
	// jitterPCG/jitter draw Jitter's skew; Jitter reseeds them from seed.
	jitterPCG *rand.PCG
	jitter    *rand.Rand
	// bytesSent accumulates the payload bytes of every send — the modeled
	// communication volume, which the collective algorithms' accounting
	// tests assert against their analytic totals.
	bytesSent int
}

// NewGroup builds an n-rank communicator.
func NewGroup(profile *netsim.Profile, n int, seed uint64) (*Group, error) {
	if profile == nil {
		return nil, fmt.Errorf("mpisim: nil profile")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("mpisim: group needs >= 2 ranks, got %d", n)
	}
	pcg := rand.NewPCG(0, 0)
	return &Group{
		profile:   profile,
		clocks:    make([]float64, n),
		inbox:     make([][]message, n),
		seed:      seed,
		jitterPCG: pcg,
		jitter:    rand.New(pcg),
	}, nil
}

// Reset returns the group to exactly the state NewGroup(profile, n, seed)
// builds: zero clocks, no message in flight, no bytes sent. It drops any
// message a failed collective left queued.
func (g *Group) Reset(seed uint64) {
	clear(g.clocks)
	for r := range g.inbox {
		g.inbox[r] = g.inbox[r][:0]
	}
	g.seed = seed
	g.bytesSent = 0
}

// Size returns the number of ranks.
func (g *Group) Size() int { return len(g.clocks) }

// Now returns a rank's virtual clock.
func (g *Group) Now(rank int) float64 { return g.clocks[rank] }

// MaxClock returns the latest rank clock (the makespan so far).
func (g *Group) MaxClock() float64 {
	m := g.clocks[0]
	for _, c := range g.clocks[1:] {
		if c > m {
			m = c
		}
	}
	return m
}

// send moves size bytes from -> to using the regime protocol semantics.
func (g *Group) send(from, to, size int) error {
	if err := g.checkEndpoints(from, to); err != nil {
		return err
	}
	reg := g.profile.RegimeFor(size)
	cpu := reg.SendOverhead(size)
	sendEnd := g.clocks[from] + cpu
	arrive := sendEnd + reg.Latency + reg.GapPerByte*float64(size)
	g.inbox[to] = append(g.inbox[to], message{from: Rank(from), size: size, arriveAt: arrive})
	g.clocks[from] = sendEnd
	g.bytesSent += size
	return nil
}

// checkEndpoints rejects out-of-range and self endpoints.
func (g *Group) checkEndpoints(from, to int) error {
	n := len(g.clocks)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return fmt.Errorf("mpisim: bad endpoints %d -> %d", from, to)
	}
	return nil
}

// TotalBytesSent returns the payload bytes moved through the group so far,
// summed over every point-to-point send a collective decomposed into.
func (g *Group) TotalBytesSent() int { return g.bytesSent }

// recv blocks rank `to` on the oldest message from `from`.
func (g *Group) recv(to, from int) error {
	if err := g.checkEndpoints(from, to); err != nil {
		return err
	}
	q := g.inbox[to]
	i := 0
	for i < len(q) && q[i].from != Rank(from) {
		i++
	}
	if i == len(q) {
		return fmt.Errorf("mpisim: rank %d has no message from %d", to, from)
	}
	msg := q[i]
	g.inbox[to] = append(q[:i], q[i+1:]...)
	if msg.arriveAt > g.clocks[to] {
		g.clocks[to] = msg.arriveAt
	}
	reg := g.profile.RegimeFor(msg.size)
	g.clocks[to] += reg.RecvOverhead(msg.size)
	return nil
}

// syncClocks raises every rank clock to the maximum — the state after a
// semantically synchronizing collective.
func (g *Group) syncClocks() {
	m := g.MaxClock()
	for i := range g.clocks {
		g.clocks[i] = m
	}
}

// Bcast broadcasts size bytes from root to every rank along a binomial
// tree (the classic MPI implementation) and returns the collective's
// completion time span: max clock advance over all ranks.
func (g *Group) Bcast(root, size int) (float64, error) {
	n := len(g.clocks)
	if root < 0 || root >= n {
		return 0, fmt.Errorf("mpisim: bad root %d", root)
	}
	start := g.MaxClock()
	// Relabel so the root is rank 0 in tree space.
	abs := func(r int) int { return (r + root) % n }
	// Binomial tree: in round k, ranks < 2^k send to rank + 2^k.
	for stride := 1; stride < n; stride *= 2 {
		for r := 0; r < stride && r+stride < n; r++ {
			if err := g.send(abs(r), abs(r+stride), size); err != nil {
				return 0, err
			}
			if err := g.recv(abs(r+stride), abs(r)); err != nil {
				return 0, err
			}
		}
	}
	return g.MaxClock() - start, nil
}

// Barrier synchronizes all ranks with a zero-byte gather to rank 0 followed
// by a zero-byte broadcast, and returns its duration.
func (g *Group) Barrier() (float64, error) {
	n := len(g.clocks)
	start := g.MaxClock()
	for r := 1; r < n; r++ {
		if err := g.send(r, 0, 0); err != nil {
			return 0, err
		}
		if err := g.recv(0, r); err != nil {
			return 0, err
		}
	}
	if _, err := g.Bcast(0, 0); err != nil {
		return 0, err
	}
	g.syncClocks()
	return g.MaxClock() - start, nil
}

// RingAllreduce reduces size bytes across all ranks with the bandwidth-
// optimal ring algorithm: the payload is split into n chunks and rotated
// for 2*(n-1) steps (n-1 reduce-scatter, n-1 allgather). The first n-1
// chunks carry size/n bytes and the final chunk the remainder, so every
// step moves exactly size bytes across the ring and the total modeled
// volume is 2*(n-1)*size — no byte is dropped for sizes not divisible by
// the rank count. Sizes below the rank count would leave chunks empty and
// are an explicit error; callers that must accept them (the collective
// engine) round up and record the effective size instead.
func (g *Group) RingAllreduce(size int) (float64, error) {
	n := len(g.clocks)
	if size < n {
		return 0, fmt.Errorf("mpisim: ring allreduce of %d bytes across %d ranks leaves empty chunks; round the size up (and record it) or use fewer ranks", size, n)
	}
	chunk := size / n
	last := size - (n-1)*chunk
	chunkAt := func(r, step int) int {
		if idx := ((r-step)%n + n) % n; idx == n-1 {
			return last
		}
		return chunk
	}
	start := g.MaxClock()
	for step := 0; step < 2*(n-1); step++ {
		for r := 0; r < n; r++ {
			if err := g.send(r, (r+1)%n, chunkAt(r, step)); err != nil {
				return 0, err
			}
		}
		for r := 0; r < n; r++ {
			if err := g.recv(r, (r-1+n)%n); err != nil {
				return 0, err
			}
		}
	}
	return g.MaxClock() - start, nil
}

// TreeAllreduce reduces size bytes across all ranks with the latency-
// optimal algorithm small messages use: a binomial-tree reduction to rank
// 0 followed by a binomial-tree broadcast — 2*ceil(log2(n)) rounds, each
// moving whole payloads. Per-byte it is far costlier than the ring (every
// round carries all size bytes), which is exactly why real MPI libraries
// switch algorithms at a size threshold; Allreduce models that switch.
func (g *Group) TreeAllreduce(size int) (float64, error) {
	n := len(g.clocks)
	start := g.MaxClock()
	// Reduction: the mirror image of Bcast's rounds, leaves first.
	stride := 1
	for stride < n {
		stride *= 2
	}
	for stride /= 2; stride >= 1; stride /= 2 {
		for r := 0; r < stride && r+stride < n; r++ {
			if err := g.send(r+stride, r, size); err != nil {
				return 0, err
			}
			if err := g.recv(r, r+stride); err != nil {
				return 0, err
			}
		}
	}
	if _, err := g.Bcast(0, size); err != nil {
		return 0, err
	}
	return g.MaxClock() - start, nil
}

// Allreduce reduces size bytes across all ranks, switching algorithms the
// way production MPI implementations do: the binomial tree below
// switchBytes, the ring at and above it. switchBytes <= 0 disables the
// tree and always runs the ring — the pre-switchover behavior.
func (g *Group) Allreduce(size, switchBytes int) (float64, error) {
	if switchBytes > 0 && size < switchBytes {
		return g.TreeAllreduce(size)
	}
	return g.RingAllreduce(size)
}

// Jitter perturbs every rank clock with small independent offsets, modelling
// the process skew real collectives start from. It uses the group's seed so
// experiments stay reproducible.
func (g *Group) Jitter(scale float64) {
	xrand.Reseed(g.jitterPCG, xrand.Derive(g.seed, "mpisim/group-jitter"))
	for i := range g.clocks {
		g.clocks[i] += g.jitter.Float64() * scale
	}
}
