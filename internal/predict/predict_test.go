package predict

import (
	"context"
	"math"
	"testing"

	"opaquebench/internal/core"
	"opaquebench/internal/cpusim"
	"opaquebench/internal/doe"
	"opaquebench/internal/membench"
	"opaquebench/internal/memsim"
	"opaquebench/internal/netbench"
	"opaquebench/internal/netsim"
	"opaquebench/internal/runner"
)

func validSig() MemorySignature {
	return MemorySignature{
		UpperBytes:    []int{64 << 10, 1 << 20, 0},
		BandwidthMBps: []float64{4000, 2000, 800},
	}
}

func TestSignatureValidate(t *testing.T) {
	if err := validSig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MemorySignature{
		{},
		{UpperBytes: []int{0}, BandwidthMBps: []float64{0}},
		{UpperBytes: []int{100, 50, 0}, BandwidthMBps: []float64{1, 1, 1}},
		{UpperBytes: []int{100, 200}, BandwidthMBps: []float64{1, 1}}, // bounded last
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("signature %d should be invalid", i)
		}
	}
}

func TestBandwidthFor(t *testing.T) {
	s := validSig()
	if got := s.BandwidthFor(10 << 10); got != 4000 {
		t.Fatalf("L1 range = %v", got)
	}
	if got := s.BandwidthFor(64 << 10); got != 2000 {
		t.Fatalf("boundary = %v", got)
	}
	if got := s.BandwidthFor(100 << 20); got != 800 {
		t.Fatalf("memory range = %v", got)
	}
}

func TestBlockSeconds(t *testing.T) {
	s := validSig()
	b := Block{Accesses: 1_000_000, ElemBytes: 4, WorkingSetBytes: 10 << 10}
	want := 4e6 / (4000 * 1e6)
	if got := s.Seconds(b); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("seconds = %v, want %v", got, want)
	}
}

func TestSignatureString(t *testing.T) {
	if validSig().String() == "" {
		t.Fatal("empty rendering")
	}
}

// opteronCampaign runs a white-box campaign suited for signature extraction.
func opteronCampaign(t *testing.T, gov cpusim.Governor, nloops int) *core.Results {
	t.Helper()
	var sizes []int
	for s := 8 << 10; s <= 4<<20; s *= 2 {
		sizes = append(sizes, s, s+s/2)
	}
	d, err := doe.FullFactorial(
		membench.Factors(sizes, []int{1}, []int{8}, []int{nloops}, []bool{true}),
		doe.Options{Replicates: 3, Seed: 5, Randomize: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := membench.NewEngine(membench.Config{
		Machine:           memsim.Opteron(),
		Seed:              5,
		Governor:          gov,
		SamplingPeriodSec: 0.01,
		GapSec:            0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExtractMemorySignatureFindsPlateaus(t *testing.T) {
	res := opteronCampaign(t, cpusim.Performance{}, 300)
	sig, err := ExtractMemorySignature(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.BandwidthMBps) != 3 {
		t.Fatalf("plateaus = %d (%v), want 3", len(sig.BandwidthMBps), sig.UpperBytes)
	}
	// Bandwidths strictly descending.
	for i := 0; i+1 < len(sig.BandwidthMBps); i++ {
		if sig.BandwidthMBps[i] <= sig.BandwidthMBps[i+1] {
			t.Fatalf("plateaus not descending: %v", sig.BandwidthMBps)
		}
	}
	// First boundary near the Opteron's 64 KB L1.
	if b := float64(sig.UpperBytes[0]); b < 48<<10 || b > 128<<10 {
		t.Fatalf("first boundary = %v, want near 64 KB", b)
	}
}

func TestExtractNeedsEnoughSizes(t *testing.T) {
	res := &core.Results{Records: []core.RawRecord{
		{Point: doe.Point{"size": "1024"}, Value: 1},
	}}
	if _, err := ExtractMemorySignature(res, 3); err == nil {
		t.Fatal("want error")
	}
}

// The headline validation: a prediction built from a white-box signature
// tracks direct simulation of an unseen block, while a signature taken
// under an uncontrolled ondemand governor with short runs (the Section IV.2
// pitfall) is badly biased.
func TestPredictionAccuracyDependsOnSignatureQuality(t *testing.T) {
	// Ground truth: direct simulation of a 48 KB-working-set block.
	m := memsim.Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	kp := memsim.KernelParams{SizeBytes: 48 << 10, Stride: 1, ElemBytes: 8, NLoops: 400, Unroll: true}
	buf, err := memsim.NewContiguousAllocator(m.PageBytes).Alloc(kp.SizeBytes)
	if err != nil {
		t.Fatal(err)
	}
	resKernel, err := memsim.RunKernel(m, h, buf, kp)
	if err != nil {
		t.Fatal(err)
	}
	truth := resKernel.Seconds(m.FreqTable.Max())

	block := Block{
		Accesses:        kp.Accesses(),
		ElemBytes:       kp.ElemBytes,
		WorkingSetBytes: kp.SizeBytes,
	}

	good, err := ExtractMemorySignature(opteronCampaign(t, cpusim.Performance{}, 300), 3)
	if err != nil {
		t.Fatal(err)
	}
	goodErr := math.Abs(good.Seconds(block)-truth) / truth

	// Pitfall signature: ondemand governor, tiny nloops — every
	// measurement ran at the idle frequency.
	bad, err := ExtractMemorySignature(opteronCampaign(t, cpusim.Ondemand{}, 300), 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = bad
	badRes := opteronCampaign(t, cpusim.Ondemand{}, 2)
	badSig, err := ExtractMemorySignature(badRes, 3)
	if err != nil {
		t.Fatal(err)
	}
	badErr := math.Abs(badSig.Seconds(block)-truth) / truth

	if goodErr > 0.25 {
		t.Fatalf("white-box prediction error %.2f too large (truth %.4g, predicted %.4g)",
			goodErr, truth, good.Seconds(block))
	}
	if badErr < goodErr*2 {
		t.Fatalf("pitfall signature should be far worse: good=%.3f bad=%.3f", goodErr, badErr)
	}
}

// fittedNet returns a LogGP model fitted on a Taurus campaign.
func fittedNet(t *testing.T) netbench.LogGPModel {
	t.Helper()
	profile := netsim.Taurus()
	d, err := netbench.Design(7, 200, 16, 2<<20, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netbench.NewEngine(netbench.Config{Profile: profile, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Sequential(context.Background(), d, eng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netbench.FitLogGP(res, profile.Breakpoints())
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestReplaySimpleExchange(t *testing.T) {
	net := fittedNet(t)
	mem := validSig()
	blk := Block{Accesses: 1_000_000, ElemBytes: 4, WorkingSetBytes: 10 << 10}
	trace := []Event{
		{Kind: EvCompute, Rank: 0, Block: blk},
		{Kind: EvCompute, Rank: 1, Block: blk},
		{Kind: EvSend, Rank: 0, Peer: 1, Size: 4096},
		{Kind: EvRecv, Rank: 1, Peer: 0, Size: 4096},
		{Kind: EvSend, Rank: 1, Peer: 0, Size: 4096},
		{Kind: EvRecv, Rank: 0, Peer: 1, Size: 4096},
	}
	p, err := Replay(mem, net, 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	compute := mem.Seconds(blk)
	reg := net.RegimeFor(4096)
	wantRank0 := compute +
		reg.SendOverhead(4096) + // its own send
		0 + // overlap with rank1's work
		reg.RecvOverhead(4096)
	if p.Makespan < wantRank0 {
		t.Fatalf("makespan %v below a lower bound %v", p.Makespan, wantRank0)
	}
	// The round trip must show up: makespan exceeds compute + one overhead.
	if p.Makespan < compute+2*reg.Wire(4096) {
		t.Fatalf("makespan %v misses the wire time", p.Makespan)
	}
	if p.ComputeSeconds <= 0 || p.NetworkSeconds <= 0 {
		t.Fatalf("decomposition empty: %+v", p)
	}
}

func TestReplayRecvWaitsForSend(t *testing.T) {
	net := fittedNet(t)
	mem := validSig()
	heavy := Block{Accesses: 100_000_000, ElemBytes: 4, WorkingSetBytes: 10 << 10}
	trace := []Event{
		{Kind: EvCompute, Rank: 0, Block: heavy}, // sender is late
		{Kind: EvSend, Rank: 0, Peer: 1, Size: 1024},
		{Kind: EvRecv, Rank: 1, Peer: 0, Size: 1024},
	}
	p, err := Replay(mem, net, 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 must have waited for rank 0's compute.
	if p.RankSeconds[1] < mem.Seconds(heavy) {
		t.Fatalf("receiver did not wait: %v < %v", p.RankSeconds[1], mem.Seconds(heavy))
	}
}

func TestReplayErrors(t *testing.T) {
	net := fittedNet(t)
	mem := validSig()
	cases := [][]Event{
		{{Kind: EvRecv, Rank: 1, Peer: 0, Size: 10}},  // recv before send
		{{Kind: EvSend, Rank: 0, Peer: 0, Size: 10}},  // self-send
		{{Kind: EvSend, Rank: 5, Peer: 0, Size: 10}},  // bad rank
		{{Kind: "barrier", Rank: 0}},                  // unknown kind
		{{Kind: EvSend, Rank: 0, Peer: 7, Size: 10}},  // bad peer
		{{Kind: EvRecv, Rank: 0, Peer: -1, Size: 10}}, // bad peer
	}
	for i, tr := range cases {
		if _, err := Replay(mem, net, 2, tr); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if _, err := Replay(MemorySignature{}, net, 2, nil); err == nil {
		t.Fatal("invalid signature accepted")
	}
	if _, err := Replay(mem, netbench.LogGPModel{}, 2, nil); err == nil {
		t.Fatal("empty network model accepted")
	}
	if _, err := Replay(mem, net, 0, nil); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestReplayPingPongMatchesRegimeRTT(t *testing.T) {
	// A pure ping-pong trace must predict ~ the fitted RTT.
	net := fittedNet(t)
	mem := validSig()
	size := 200000
	trace := []Event{
		{Kind: EvSend, Rank: 0, Peer: 1, Size: size},
		{Kind: EvRecv, Rank: 1, Peer: 0, Size: size},
		{Kind: EvSend, Rank: 1, Peer: 0, Size: size},
		{Kind: EvRecv, Rank: 0, Peer: 1, Size: size},
	}
	p, err := Replay(mem, net, 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	reg := net.RegimeFor(float64(size))
	wantRTT := 2 * (reg.SendOverhead(float64(size)) + reg.Wire(float64(size)) + reg.RecvOverhead(float64(size)))
	if math.Abs(p.Makespan-wantRTT)/wantRTT > 1e-9 {
		t.Fatalf("replayed RTT %v, model RTT %v", p.Makespan, wantRTT)
	}
	// And the fitted RTT tracks the simulator's ground truth.
	truth := netsim.Taurus().RegimeFor(size).RTT(size)
	if math.Abs(p.Makespan-truth)/truth > 0.15 {
		t.Fatalf("replayed RTT %v vs ground truth %v", p.Makespan, truth)
	}
}
