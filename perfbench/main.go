// Command perfbench is the simulator's benchmark. One run builds and runs
// one workload repeatedly for a fixed host-time budget and prints the
// end-to-end metrics; a traced run instead prints per-layer metrics from
// the layer ladder and a profiled pass over the workload.
//
//	bash perfbench/run.sh --workload dmz-bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Earlier lines carry the
// runner metadata, a readable metric table and the simulated-output
// digest. METRICS.md lists every metric and what should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every RNG of the workload")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second

	printMeta(os.Stdout, w.name, *seed, *trace)
	var res result
	if *trace == 1 {
		res = tracedRun(os.Stdout, w, *seed, budget, false)
	} else {
		res = timedRun(os.Stdout, w, *seed, budget, false)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// jobsPerRun is how many jobs a timed run cycles through. The seed
// decides where a lossy transfer loses packets and so how many packets
// are in flight, which moves the CPU cost per packet: dmz-bulk at seed
// 11 costs 16% more than at seed 14, interleaved in one process. One job
// per run would turn that into run-to-run spread, so each run measures
// several jobs and averages them.
const jobsPerRun = 16

// jobSeeds derives the seeds of a timed run's jobs from its --seed.
func jobSeeds(seed int64) []int64 {
	seeds := make([]int64, jobsPerRun)
	for i := range seeds {
		seeds[i] = sim.DeriveSeed("perfbench/job", strconv.FormatInt(seed, 10), strconv.Itoa(i))
	}
	return seeds
}

// timedRun runs the workload's jobs in turn until every job has run and
// the budget is spent, after one untimed warm-up iteration. Each metric
// is the mean over the jobs of the job's median. Host times are scaled
// to the reference speed by the reference kernel run between iterations
// (see calib.go). Every iteration of a job must reproduce the job's
// first digest exactly. quick shrinks the workload for tests.
func timedRun(out io.Writer, w workload, seed int64, budget time.Duration, quick bool) result {
	heap := startHeapSampler()
	defer heap.close()

	seeds := jobSeeds(seed)
	warm, _ := runIteration(w, seeds[0], quick, heap, nil)
	referenceKernel() // warm-up
	// kernels[i] and kernels[i+1] bracket timed iteration i.
	kernels := []time.Duration{referenceKernel()}
	var its []iteration
	for start := time.Now(); len(its) < len(seeds) || time.Since(start) < budget; {
		it, _ := runIteration(w, seeds[len(its)%len(seeds)], quick, heap, nil)
		its = append(its, it)
		kernels = append(kernels, referenceKernel())
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var ops tally
	ops.add(fmt.Sprint(seeds[0]), warm)
	digests := []string{warm.digest}
	if warm.err != nil {
		res.Correct = false
		fmt.Fprintf(out, "gate: warm-up (seed %d): %v\n", seeds[0], warm.err)
	}
	// per[name][job] holds one metric's samples for one job.
	names := []string{"setup_s", "run_s", "pkts_per_s", "allocs_per_pkt", "peak_heap_mb", "run_cpu_s", "run_wall_s", "kernel_s"}
	per := map[string][][]float64{}
	for _, n := range names {
		per[n] = make([][]float64, len(seeds))
	}
	for i, it := range its {
		job := i % len(seeds)
		ops.add(fmt.Sprint(seeds[job]), it)
		if job == len(digests) {
			digests = append(digests, it.digest)
		}
		if it.digest != digests[job] {
			res.Correct = false
			fmt.Fprintf(out, "gate: iteration %d (seed %d): digest differs from the job's first\n", i, seeds[job])
		}
		if it.err != nil {
			res.Correct = false
			fmt.Fprintf(out, "gate: iteration %d (seed %d): %v\n", i, seeds[job], it.err)
		}
		add := func(name string, v float64) { per[name][job] = append(per[name][job], v) }
		k := (kernels[i] + kernels[i+1]) / 2
		for _, d := range it.setups {
			add("setup_s", hostScale(d, k))
		}
		r := hostScale(it.run, k)
		add("run_s", r)
		add("pkts_per_s", float64(it.delivered)/r)
		add("allocs_per_pkt", float64(it.mallocs)/float64(it.delivered))
		add("peak_heap_mb", float64(it.peakHeap)/1e6)
		add("run_cpu_s", it.run.Seconds())
		add("run_wall_s", it.wall.Seconds())
		add("kernel_s", k.Seconds())
	}
	// meanMedian averages the jobs' medians of one metric.
	meanMedian := func(name string) float64 {
		var sum float64
		for _, xs := range per[name] {
			sum += median(xs)
		}
		return sum / float64(len(seeds))
	}
	res.Attempted, res.Failed = ops.totals()
	units := []string{"s", "s", "pkt/s", "allocs/pkt", "MB"}
	for i, u := range units {
		res.Metrics[names[i]] = metric{meanMedian(names[i]), u}
	}

	reportDigests(out, seeds, digests)
	fmt.Fprintf(out, "%-15s %14s  %s\n", "metric", "value", "unit")
	for _, k := range names[:len(units)] {
		m := res.Metrics[k]
		fmt.Fprintf(out, "%-15s %14.6g  %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-15s %14.6g  %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	fmt.Fprintf(out, "%-15s %14.6g  %s (CPU time before scaling to the reference speed)\n", "run_cpu_s", meanMedian("run_cpu_s"), "s")
	fmt.Fprintf(out, "%-15s %14.6g  %s (wall clock, not a metric: it includes time stolen from the VM)\n", "run_wall_s", meanMedian("run_wall_s"), "s")
	fmt.Fprintf(out, "%-15s %14.6g  %s (reference kernel CPU time; %v at the reference speed)\n", "kernel_s", meanMedian("kernel_s"), "s", refKernelCPU)
	fmt.Fprintf(out, "run_s by job:")
	for _, xs := range per["run_s"] {
		fmt.Fprintf(out, " %.4g/%d", median(xs), len(xs))
	}
	fmt.Fprintf(out, " (median/samples)\nsamples %d timed iterations of %d jobs\n", len(its), len(seeds))
	return res
}

// reportDigests prints each job's digest, and one hash over all of them.
func reportDigests(out io.Writer, seeds []int64, digests []string) {
	all := fnv.New64a()
	for i, d := range digests {
		h := fnv.New64a()
		io.WriteString(h, d)
		io.WriteString(all, d)
		fmt.Fprintf(out, "digest job %d seed %d fnv64a=%016x\n", i, seeds[i], h.Sum64())
		for _, l := range strings.Split(strings.TrimSuffix(d, "\n"), "\n") {
			fmt.Fprintf(out, "digest %d| %s\n", i, l)
		}
	}
	fmt.Fprintf(out, "digest fnv64a=%016x\n", all.Sum64())
}
