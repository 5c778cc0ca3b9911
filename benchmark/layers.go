package main

import (
	"fmt"
	"strings"

	"opaquebench/internal/stats"
)

// traceLayers turns a traced run's records into its per-layer metrics. It
// first adds one "runner.campaign" span per executed campaign, bounding its
// trials, under the op's span, then snapshots every span for trace.json and
// the self-time summary. gcCycles and logGrowth cover the timed phase.
func traceLayers(res *result, logGrowth float64, gcCycles uint32) {
	w := res.Host.W
	opSpan := map[int]int{}
	for i, s := range tr.snapshot() {
		if s.Name == "op" {
			opSpan[s.Op] = i
		}
	}
	var campaignMs []float64
	var busy, capacity float64
	perEngine := map[string]execTrace{}
	strides := map[int]accessTime{}
	var trials, hits, campaigns, dups int
	for _, smp := range res.samples {
		trials += smp.Trials
		hits += smp.Hits
		campaigns += smp.Campaigns
		if smp.Duplicate {
			dups++
			continue
		}
		for _, co := range smp.camps {
			ct, ran := tr.campaign(co.seed)
			if co.hit || !ran {
				continue
			}
			parent := -1
			if i, ok := opSpan[smp.ID]; ok {
				parent = i
			}
			tr.add(span{Name: "runner.campaign", Op: smp.ID, Parent: parent, Start: ct.first, End: ct.last, N: ct.trials})
			envelope := float64(ct.last - ct.first)
			campaignMs = append(campaignMs, envelope/1e6)
			busy += float64(ct.busy)
			capacity += envelope * float64(min(w, ct.trials))
			pe := perEngine[ct.engine]
			pe.busy += ct.busy
			pe.trials += ct.trials
			perEngine[ct.engine] = pe
			for stride, st := range ct.strides {
				sum := strides[stride]
				sum.ns += st.ns
				sum.accesses += st.accesses
				strides[stride] = sum
			}
		}
	}
	res.trace = tr.snapshot()
	res.Spans = spanStats(res.trace)

	dup := map[int]bool{}
	for _, smp := range res.samples {
		dup[smp.ID] = smp.Duplicate
	}
	selfs := selfTimes(res.trace)
	ms := map[string][]float64{}
	var sinkUS, adaptMs []float64
	for i, s := range res.trace {
		d := float64(s.End-s.Start) / 1e6
		switch {
		case s.Name == "runner.sink" && s.N > 0:
			sinkUS = append(sinkUS, d*1e3/float64(s.N))
		case s.Name == "adapt.run":
			adaptMs = append(adaptMs, float64(selfs[i])/1e6)
		case strings.HasPrefix(s.Name, "serve.") && dup[s.Op]:
			// A dedupe hit runs nothing; its phases would only dilute the
			// fresh jobs'.
		default:
			ms[s.Name] = append(ms[s.Name], d)
		}
	}

	n := float64(max(len(res.samples), 1))
	l := map[string]value{}
	put := func(name string, v float64, samples int) {
		def, _ := findMetric(name)
		l[name] = value{Value: v, Unit: def.Unit, N: samples}
	}
	putMedian := func(name string, xs []float64, scale float64) {
		if len(xs) == 0 {
			put(name, 0, 0)
			return
		}
		put(name, stats.Median(xs)*scale, len(xs))
	}
	putMedian("suite.plan_ms", ms["suite.plan"], 1)
	put("suite.hit_frac", float64(hits)/float64(max(campaigns, 1)), campaigns)
	putMedian("suite.load_ms", ms["suite.load"], 1)
	putMedian("store.get_us", ms["store.get"], 1e3)
	putMedian("store.put_ms", ms["store.put"], 1)
	put("store.bytes_per_op", logGrowth/n, len(res.samples))
	putMedian("runner.campaign_ms", campaignMs, 1)
	put("runner.busy_frac", busy/max(capacity, 1), len(campaignMs))
	putMedian("runner.sink_us_per_record", sinkUS, 1)
	var all execTrace
	for _, pe := range perEngine {
		all.busy += pe.busy
		all.trials += pe.trials
	}
	put("engine.execute_us", meanUS(all), all.trials)
	put("engine.trials_per_op", float64(trials)/n, len(res.samples))
	put("serve.dedupe_frac", float64(dups)/n, len(res.samples))
	put("go.gc_cycles_per_op", float64(gcCycles)/n, len(res.samples))

	// Layers only some workloads reach are reported where they were reached.
	for eng, pe := range perEngine {
		put(fmt.Sprintf("engine.%s.execute_us", eng), meanUS(pe), pe.trials)
	}
	for _, stride := range []int{1, 16} {
		if st := strides[stride]; st.accesses > 0 {
			put(fmt.Sprintf("memsim.ns_per_access.stride%d", stride), float64(st.ns)/float64(st.accesses), int(st.accesses))
		}
	}
	if len(adaptMs) > 0 {
		putMedian("adapt.plan_ms", adaptMs, 1)
	}
	for _, name := range []string{"submit", "queue_wait", "run", "fetch"} {
		if xs := ms["serve."+name]; len(xs) > 0 {
			putMedian("serve."+name+"_ms", xs, 1)
		}
	}
	res.Layers = l
}

// meanUS is the mean Execute time per trial, in µs.
func meanUS(t execTrace) float64 {
	return float64(t.busy) / 1e3 / float64(max(t.trials, 1))
}

func spanStats(spans []span) map[string]spanStat {
	selfs := selfTimes(spans)
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.MeanMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(selfs[i]) / 1e6
		out[s.Name] = st
	}
	for name, st := range out {
		st.MeanMs /= float64(st.Count)
		st.SelfMs /= float64(st.Count)
		out[name] = st
	}
	return out
}
