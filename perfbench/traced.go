package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/shard"
)

// cpuLayers are the modules whose share of profiled CPU time the traced
// run reports; "runtime" is memory management, GC and scheduling.
var cpuLayers = []string{"sim", "netsim", "tcp", "firewall", "content", "fluid", "runtime"}

const (
	gcCPU    = "/cpu/classes/gc/total:cpu-seconds"
	gcCycles = "/gc/cycles/total:gc-cycles"
)

// tracedRun reports per-layer metrics. It is kept apart from the timed
// runs: the ladder rungs, then untraced and CPU-profiled iterations in
// alternation (their run_s ratio is the tracing overhead), then the
// workload under the sharded engine at 1 and 2 shards. Every iteration
// passes the same correctness gate as a timed run, and the 1- and
// 2-shard runs must agree on the digest. quick shrinks the workload and
// the ladder for tests.
func tracedRun(out io.Writer, w workload, seed int64, budget time.Duration, quick bool) result {
	start := time.Now()
	heap := startHeapSampler()
	defer heap.close()

	m := map[string]metric{}
	ladder(m, quick)

	res := result{Correct: true, Metrics: m}
	// gate applies the correctness gate and requires every iteration to
	// reproduce the first digest of its group.
	ref := map[string]string{}
	var ops tally
	gate := func(group string, it iteration) {
		ops.add(group, it)
		if _, ok := ref[group]; !ok {
			ref[group] = it.digest
		}
		if it.err != nil {
			res.Correct = false
			fmt.Fprintf(out, "gate: %s: %v\n", group, it.err)
		}
		if it.digest != ref[group] {
			res.Correct = false
			fmt.Fprintf(out, "gate: %s digest differs from the first %s run's\n", group, group)
		}
	}

	var plain, profiled, gcSecs, gcRuns []float64
	var samples []stackSample
	var last *job
	// Each pass runs two iterations; keep room for one more pass plus
	// the two sharded iterations inside the budget.
	for pass := 0; len(profiled) == 0 || time.Since(start)+5*time.Duration(median(plain)*float64(time.Second)) < budget; pass++ {
		untraced := func() {
			it, _ := runIteration(w, seed, quick, heap, nil)
			gate("untraced", it)
			plain = append(plain, it.run.Seconds())
		}
		// Alternate which of the pair goes first, so an effect of the
		// order does not show up as tracing overhead.
		if pass%2 == 0 {
			untraced()
		}

		var prof bytes.Buffer
		gc := []metrics.Sample{{Name: gcCPU}, {Name: gcCycles}}
		it, j := runIteration(w, seed, quick, heap, func(*job) func() {
			metrics.Read(gc)
			cpu0, cycles0 := gc[0].Value.Float64(), gc[1].Value.Uint64()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				panic(err) // only fails when another profile is running
			}
			return func() {
				pprof.StopCPUProfile()
				metrics.Read(gc)
				gcSecs = append(gcSecs, gc[0].Value.Float64()-cpu0)
				gcRuns = append(gcRuns, float64(gc[1].Value.Uint64()-cycles0))
			}
		})
		gate("traced", it)
		last = j
		profiled = append(profiled, it.run.Seconds())
		s, err := cpuSamples(prof.Bytes())
		if err != nil {
			res.Correct = false
			fmt.Fprintf(out, "gate: %v\n", err)
		}
		samples = append(samples, s...)
		if pass%2 == 1 {
			untraced()
		}
	}
	m["trace.overhead"] = metric{median(profiled) / median(plain), "ratio"}
	m["runtime.gc_cpu_s"] = metric{median(gcSecs), "s"}
	m["runtime.gc_cycles"] = metric{median(gcRuns), "count"}
	layerCounters(m, last)
	cpuShares(m, samples, len(profiled), last)
	m["netsim.routes_s"] = metric{routeTime(w, seed, quick), "s"}

	for _, n := range []int{1, 2} {
		it, windows, err := shardedIteration(w, seed, quick, heap, n)
		if err != nil {
			res.Correct = false
			fmt.Fprintf(out, "gate: %d shards: %v\n", n, err)
			continue
		}
		// Sharded runs draw wire loss from per-port streams, so only the
		// shard count must not change the digest; a loss-free workload
		// also matches the unsharded run (the tests pin that).
		gate("sharded", it)
		m[fmt.Sprintf("shard.run_s_%d", n)] = metric{it.wall.Seconds(), "s"}
		if n == 2 {
			m["shard.windows"] = metric{float64(windows), "count"}
		}
	}

	res.Attempted, res.Failed = ops.totals()
	printLayers(out, m, len(plain), len(profiled))
	return res
}

// layerCounters reads the public counters of one finished traced job.
// Event counts are per delivered packet, so runs of different lengths
// compare; a layer the workload does not use reads 0.
func layerCounters(m map[string]metric, j *job) {
	c := j.net.Conservation()
	pkts := float64(c.Delivered)
	m["sim.events_per_pkt"] = metric{float64(j.net.Sched.Processed) / pkts, "1/pkt"}

	events := map[string]uint64{}
	for _, tc := range j.net.Sched.EventCounts() {
		events[tc.Tag] = tc.Count
	}
	for _, tag := range []string{"netsim.port", "netsim.link", "netsim.device", "tcp.sender", "tcp.receiver", "firewall"} {
		m[tag+".events"] = metric{float64(events[tag]) / pkts, "1/pkt"}
	}

	var tx uint64
	for _, l := range j.net.Links() {
		tx += l.A.Counters.TxPackets + l.B.Counters.TxPackets
	}
	m["netsim.hops_per_pkt"] = metric{float64(tx) / float64(c.Injected+c.Originated), "1/pkt"}
	m["netsim.drops"] = metric{float64(c.Dropped), "count"}

	var retx, rtos int
	for _, tr := range j.transfers {
		for _, st := range tr.Result().PerStream {
			retx += st.Retransmits
			rtos += st.RTOs
		}
	}
	m["tcp.retransmits"] = metric{float64(retx), "count"}
	m["tcp.rtos"] = metric{float64(rtos), "count"}

	var hit, evictions, aggregated float64
	if ca := j.cache; ca != nil {
		hit, evictions, aggregated = ca.HitRatio(), float64(ca.Store().Evictions), float64(ca.Aggregated)
	}
	m["content.hit_ratio"] = metric{hit, "ratio"}
	m["content.evictions"] = metric{evictions, "count"}
	m["content.aggregated"] = metric{aggregated, "count"}

	var ticks float64
	if j.fluid != nil {
		ticks = float64(j.fluid.Ticks())
	}
	m["fluid.ticks"] = metric{ticks, "count"}
}

// cpuShares sums the profiled CPU time by module, and estimates the
// cache interceptor's cost per packet from the time spent inside
// Cache.Intercept. (The cache installs itself as its switch's only
// interceptor, so a timing wrapper cannot be slid in front of it through
// the public API; the profile's inclusive time stands in for one.)
func cpuShares(m map[string]metric, samples []stackSample, iterations int, j *job) {
	by := map[string]time.Duration{}
	var total, intercept time.Duration
	for _, s := range samples {
		by[layerOf(s.stack)] += s.cpu
		total += s.cpu
		for _, fn := range s.stack {
			if fn == "repro/internal/content.(*Cache).Intercept" {
				intercept += s.cpu
				break
			}
		}
	}
	for _, l := range cpuLayers {
		share := 0.0
		if total > 0 {
			share = float64(by[l]) / float64(total)
		}
		m[l+".cpu_share"] = metric{share, "ratio"}
	}

	perPkt := 0.0
	if j.cache != nil {
		var seen uint64
		for _, p := range j.cache.Device().Ports() {
			seen += p.Counters.RxPackets
		}
		// The samples span every profiled iteration, and each of them
		// saw the same packets as the last.
		if seen > 0 {
			perPkt = float64(intercept.Nanoseconds()) / float64(seen*uint64(iterations))
		}
	}
	m["content.intercept_ns"] = metric{perPkt, "ns"}
}

// routeTime times a second ComputeRoutes call on a freshly built job;
// the call is idempotent. The median of five calls is reported.
func routeTime(w workload, seed int64, quick bool) float64 {
	j := w.build(seed, quick)
	var ts []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		j.net.ComputeRoutes()
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

// shardedIteration runs the workload once under the sharded engine.
func shardedIteration(w workload, seed int64, quick bool, heap *heapSampler, shards int) (iteration, uint64, error) {
	var eng *shard.Engine
	var err error
	it, _ := runIteration(w, seed, quick, heap, func(j *job) func() {
		eng, err = shard.Install(j.net, shards)
		return func() {}
	})
	if err != nil {
		return it, 0, err
	}
	return it, eng.Windows, nil
}

func printLayers(out io.Writer, m map[string]metric, plain, profiled int) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-26s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, k := range names {
		fmt.Fprintf(out, "%-26s %14.6g  %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "samples %d untraced and %d profiled iterations\n", plain, profiled)
}
