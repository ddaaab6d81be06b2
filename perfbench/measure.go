package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times an iteration builds its workload. Set-up
// takes well under a millisecond to a few milliseconds, so one sample per
// iteration would leave its median at the mercy of a single descheduling;
// the extra builds are discarded and cost little next to the run.
const setupReps = 8

// iteration is what one build-and-run of a workload measured. setups
// and run are process CPU time (see cpuTime); wall is the run's elapsed
// time, which only the sharded runs report, since their point is whether
// a second core shortens it.
type iteration struct {
	setups        []time.Duration
	run, wall     time.Duration
	delivered     uint64
	mallocs       uint64
	peakHeap      uint64 // bytes
	started, done int
	digest        string
	err           error // audit, ledger or workload check failure
}

func (it iteration) failed() int {
	if it.err != nil {
		return it.started
	}
	return it.started - it.done
}

// tally counts the operations of a run for its result line. A run
// repeats one deterministic job for as long as its budget lasts, so
// summing over iterations would make the counts depend on how fast the
// host was; instead each group of identical iterations counts its job
// once, from its first iteration. If any iteration of a group fails the
// correctness gate, every operation of the group's job counts as failed.
type tally struct {
	started, failed map[string]int
	order           []string
}

func (t *tally) add(group string, it iteration) {
	if t.started == nil {
		t.started, t.failed = map[string]int{}, map[string]int{}
	}
	if _, ok := t.started[group]; !ok {
		t.order = append(t.order, group)
		t.started[group], t.failed[group] = it.started, it.failed()
	}
	if it.err != nil {
		t.failed[group] = t.started[group]
	}
}

// totals returns the operations attempted and failed over all groups.
func (t *tally) totals() (attempted, failed int) {
	for _, g := range t.order {
		attempted += t.started[g]
		failed += t.failed[g]
	}
	return attempted, failed
}

// runIteration builds a workload and runs it to its horizon, timing the
// two phases separately. hook, when non-nil, sees the built job just
// before the first simulated event, and the function it returns runs
// just after the horizon (the traced run starts and stops its profile
// there).
func runIteration(w workload, seed int64, quick bool, heap *heapSampler, hook func(*job) func()) (iteration, *job) {
	var j *job
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		j = nil // let the collection below free the previous build
		runtime.GC()
		heap.reset()
		c0 := cpuTime()
		j = w.build(seed, quick)
		setups = append(setups, cpuTime()-c0)
	}
	done := func() {}
	if hook != nil {
		done = hook(j)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c1, t1 := cpuTime(), time.Now()
	j.advance()
	run, wall := cpuTime()-c1, time.Since(t1)
	done()
	runtime.ReadMemStats(&after)

	it := iteration{
		setups:    setups,
		run:       run,
		wall:      wall,
		delivered: j.net.Conservation().Delivered,
		mallocs:   after.Mallocs - before.Mallocs,
		peakHeap:  heap.peak(),
		digest:    j.digest(),
		err:       j.audit(),
	}
	it.started, it.done = j.ops()
	return it, j
}

// audit is the correctness gate every iteration passes through: the
// conservation ledger balances, the network's invariant audit is empty,
// and the workload's own output checks hold.
func (j *job) audit() error {
	var errs []error
	if c := j.net.Conservation(); !c.Balanced() {
		errs = append(errs, fmt.Errorf("conservation ledger unbalanced: %s", c))
	}
	errs = append(errs, j.net.AuditInvariants()...)
	if j.check != nil {
		errs = append(errs, j.check())
	}
	return errors.Join(errs...)
}

// digest renders the simulated statistics a pure speed-up must leave
// unchanged: packet ledger and drop sites, per-flow bytes acked and
// retransmits, cache counters, the fluid ledger and the final clock.
func (j *job) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim-time %v\n", j.net.Now())
	fmt.Fprintf(&b, "packets %s\n", j.net.Conservation())
	for _, s := range j.net.DropSites() {
		fmt.Fprintf(&b, "drops %s %d\n", s.Site, s.Count)
	}
	off, del, drop, queued := j.net.FluidLedger()
	fmt.Fprintf(&b, "fluid-ledger offered=%d delivered=%d dropped=%d queued=%d\n", off, del, drop, queued)
	// Streams are listed in completion order, which can differ between
	// same-instant events under the sharded engine; sort them.
	var flows []string
	for _, tr := range j.transfers {
		for _, st := range tr.Result().PerStream {
			flows = append(flows, fmt.Sprintf("flow %s acked=%d retransmits=%d rtos=%d done=%v\n",
				st.Flow, st.BytesAcked, st.Retransmits, st.RTOs, st.Done))
		}
	}
	sort.Strings(flows)
	for _, f := range flows {
		b.WriteString(f)
	}
	if c := j.cache; c != nil {
		fmt.Fprintf(&b, "cache hits=%d misses=%d evictions=%d aggregated=%d refetches=%d\n",
			c.Hits, c.Misses, c.Store().Evictions, c.Aggregated, c.Refetches)
	}
	if j.extra != nil {
		j.extra(&b)
	}
	return b.String()
}

// heapSampler tracks the heap high-water mark by polling, every
// millisecond from its own goroutine, the live heap that the latest GC
// cycle marked. Live bytes, unlike all heap objects, leave out the
// garbage that piles up between cycles, whose amount depends on when the
// concurrent collector happens to run; the mark is then a property of
// the simulation's state rather than of the host's timing. runtime/metrics
// reads do not stop the world, so the poll does not perturb the timed run.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.max.Store(0) }

// peak returns the high-water mark since reset.
func (h *heapSampler) peak() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	h.observe(s[0].Value.Uint64())
	return h.max.Load()
}

// close stops the polling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the CPU time the process has used so far, all threads
// (the simulation and the garbage collector) together. Unlike wall time,
// it leaves out time the hypervisor steals from a shared VM's vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
