package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/shard"
)

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runQuick builds and runs one quick iteration, optionally sharded.
func runQuick(t *testing.T, w workload, seed int64, quick bool, shards int) iteration {
	t.Helper()
	heap := startHeapSampler()
	defer heap.close()
	var hook func(*job) func()
	if shards > 0 {
		hook = func(j *job) func() {
			if _, err := shard.Install(j.net, shards); err != nil {
				t.Fatalf("%s: shard.Install(%d): %v", w.name, shards, err)
			}
			return func() {}
		}
	}
	it, _ := runIteration(w, seed, quick, heap, hook)
	if it.err != nil {
		t.Fatalf("%s seed %d shards %d: correctness gate: %v", w.name, seed, shards, it.err)
	}
	return it
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	var want []string
	for _, w := range readSpec(t).Workloads {
		want = append(want, w.Name)
	}
	if got := workloadNames(); !equalSets(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestTimedRunPrintsEndToEndMetrics(t *testing.T) {
	spec := readSpec(t)
	res := timedRun(io.Discard, workloads[0], 1, time.Millisecond, true)
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("timed run: correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	checkMetrics(t, res.Metrics, spec.EndToEnd)
}

func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		res := tracedRun(io.Discard, w, 1, time.Millisecond, true)
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s traced run: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
		}
		checkMetrics(t, res.Metrics, spec.PerLayer)
	}
}

// The result line's operation counts must not depend on how many
// iterations the host's speed let a run fit into its budget.
func TestOperationCountsIgnoreIterationCount(t *testing.T) {
	w, _ := workloadByName("campus-mice")
	short := timedRun(io.Discard, w, 1, time.Millisecond, true)
	long := timedRun(io.Discard, w, 1, 2*time.Second, true)
	if short.Attempted != long.Attempted || short.Failed != long.Failed {
		t.Errorf("1 ms run: %d of %d failed; 2 s run: %d of %d failed",
			short.Failed, short.Attempted, long.Failed, long.Attempted)
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names, wantNames []string
	for k := range got {
		names = append(names, k)
	}
	for _, m := range want {
		wantNames = append(wantNames, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if !equalSets(names, wantNames) {
		sort.Strings(names)
		sort.Strings(wantNames)
		t.Errorf("printed metrics %v\nBENCHMARK.json lists %v", names, wantNames)
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a := runQuick(t, w, 1, false, 0).digest
		if b := runQuick(t, w, 1, false, 0).digest; a != b {
			t.Errorf("%s: two runs at seed 1 differ:\n%s\n---\n%s", w.name, a, b)
		}
		if c := runQuick(t, w, 2, false, 0).digest; a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest:\n%s", w.name, a)
		}
	}
}

func TestDigestShardInvariant(t *testing.T) {
	for _, w := range workloads {
		if w.name == "dmz-bulk" {
			continue
		}
		want := runQuick(t, w, 1, true, 0).digest
		for _, n := range []int{1, 2} {
			if got := runQuick(t, w, 1, true, n).digest; got != want {
				t.Errorf("%s at %d shards:\n%s\nwithout a shard runner:\n%s", w.name, n, got, want)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		if seen[s] == 0 {
			return false
		}
		seen[s]--
	}
	return true
}
