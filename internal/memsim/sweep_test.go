package memsim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// sweepMachines are the Figure 5 registry, a non-pow2 geometry (division
// address split, no MRU tracking, per-load L1 hits), the ARM under random
// replacement, and the i7 with a TLB model, whose kernels have no sweep.
func sweepMachines() map[string]*Machine {
	ms := Machines()
	nonPow2 := CoreI7()
	nonPow2.Levels = []CacheConfig{
		{Name: "L1", SizeBytes: 3 * 2 * 24, Ways: 2, LineBytes: 24, FillBytesPerCycle: 3},
		{Name: "L2", SizeBytes: 5 * 4 * 24, Ways: 4, LineBytes: 24, FillBytesPerCycle: 1},
	}
	ms["nonpow2"] = nonPow2
	random := ARMSnowball()
	for i := range random.Levels {
		random.Levels[i].Replacement = RandomReplacement
	}
	ms["snowball/random"] = random
	withTLB := CoreI7()
	withTLB.TLBEntries = 64
	ms["i7/tlb"] = withTLB
	return ms
}

// TestSharedSweepMatchesDirectRun is the exactness property behind the
// kernel memo's sweep sharing. For random sum kernels (sizes that end
// mid-line, elements of 4, 8 and 32 bytes, strides up to and past a line,
// 1 to 6 loops) it groups the kernels by sweep key, simulates the first
// of each group once, and requires every member's result assembled from
// that profile to DeepEqual a direct RunStream on a flushed hierarchy.
func TestSharedSweepMatchesDirectRun(t *testing.T) {
	ms := sweepMachines()
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for mi, name := range names {
		m := ms[name]
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(mi), 15))
			line := m.L1().LineBytes
			maxLines := min(2*m.Levels[len(m.Levels)-1].SizeBytes, 2<<20) / line
			alloc := NewContiguousAllocator(m.PageBytes)
			if _, err := alloc.Alloc(1 + r.IntN(3*m.PageBytes)); err != nil { // shift the first line
				t.Fatal(err)
			}
			buf, err := alloc.Alloc(maxLines * line)
			if err != nil {
				t.Fatal(err)
			}
			bufs := []*Buffer{buf}
			h, err := m.NewHierarchy()
			if err != nil {
				t.Fatal(err)
			}
			direct := func(p KernelParams) KernelResult {
				h.Flush()
				res, err := RunStream(m, h, bufs, p, StreamSum)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			groups := map[SweepKey][]KernelParams{}
			for i := 0; i < 40; i++ {
				// Log-uniform line counts: mostly small, some past the last level.
				lines := int(math.Exp(r.Float64() * math.Log(float64(maxLines))))
				for v := 0; v < 8; v++ {
					elem := []int{4, 8, 32}[r.IntN(3)]
					p := KernelParams{
						SizeBytes: max(lines*line-r.IntN(line), 1),
						Stride:    1 + r.IntN(2*line/elem+1),
						ElemBytes: elem,
						NLoops:    1 + r.IntN(6),
					}
					if p.Validate(buf) != nil {
						continue
					}
					key, ok := SumSweep(m, bufs, p, StreamSum)
					if want := m.TLBEntries == 0 && p.Stride*p.ElemBytes <= line; ok != want {
						t.Fatalf("%+v: shareable=%v, want %v", p, ok, want)
					}
					if ok {
						groups[key] = append(groups[key], p)
					}
				}
			}
			shared := 0
			for key, ps := range groups {
				h.Flush()
				prof, err := SimulatePasses(m, h, bufs, ps[0], StreamSum)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range ps {
					if got, want := prof.Assemble(m, p, StreamSum), direct(p); !reflect.DeepEqual(got, want) {
						t.Fatalf("sweep %+v: %+v assembled from %+v's profile\n got %+v\nwant %+v", key, p, ps[0], got, want)
					}
					if p.Stride != ps[0].Stride || p.ElemBytes != ps[0].ElemBytes {
						shared++
					}
				}
			}
			if m.TLBEntries == 0 && shared < 20 {
				t.Fatalf("only %d kernels shared a sweep under another stride or element size", shared)
			}
		})
	}
}

// TestSumSweepRefusesUnshareable lists the kernels whose profile depends
// on more than their line sweep.
func TestSumSweepRefusesUnshareable(t *testing.T) {
	i7 := CoreI7()
	withTLB := CoreI7()
	withTLB.TLBEntries = 64
	mixed := CoreI7()
	mixed.Levels[1].LineBytes = 128
	bufs := streamBufs(t, i7, 3, 64<<10)
	p := KernelParams{SizeBytes: 64 << 10, Stride: 1, ElemBytes: 4, NLoops: 5}
	if _, ok := SumSweep(i7, bufs, p, StreamSum); !ok {
		t.Fatal("plain i7 sum kernel has no sweep key")
	}
	wide := p
	wide.Stride, wide.ElemBytes = 9, 8 // 72 bytes > 64-byte line
	cases := []struct {
		name string
		m    *Machine
		bufs []*Buffer
		p    KernelParams
		kind StreamKind
	}{
		{"copy", i7, bufs, p, StreamCopy},
		{"triad", i7, bufs, p, StreamTriad},
		{"tlb model", withTLB, bufs, p, StreamSum},
		{"stride past line", i7, bufs, wide, StreamSum},
		{"mixed line sizes", mixed, bufs, p, StreamSum},
		{"paged buffer", i7, []*Buffer{pagedCopy(bufs[0])}, p, StreamSum},
		{"no element", i7, bufs, KernelParams{SizeBytes: 2, Stride: 1, ElemBytes: 4, NLoops: 1}, StreamSum},
	}
	for _, c := range cases {
		if key, ok := SumSweep(c.m, c.bufs, c.p, c.kind); ok {
			t.Errorf("%s: sweep key %+v, want none", c.name, key)
		}
	}
}
