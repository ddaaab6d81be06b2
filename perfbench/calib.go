package main

import "time"

// The host this benchmark runs on is a share of a machine it does not
// control, and its speed drifts by tens of percent over minutes: CPU
// time, not only wall time, since neighbours contend for caches, memory
// bandwidth and hyperthread siblings. The timed run therefore measures
// the host's current speed beside every iteration with a fixed
// reference kernel and scales the iteration's times to the speed at
// which the kernel takes refKernelCPU. The kernel uses no simulator
// code, so a change to the simulator moves the scaled times exactly as
// it moves the raw ones; only the host's drift divides out.

// refKernelCPU is the reference kernel's median CPU time (one call of
// kernelEvents events) on the runner the benchmark was tuned on, a
// 2-vCPU "Intel(R) Xeon(R) Processor" VM. Times reported in seconds are
// seconds at that speed.
const refKernelCPU = 50 * time.Millisecond

// kernelEvents sizes one reference-kernel call to about 50 ms.
const kernelEvents = 200_000

// kernelNodes is how many nodes the kernel's forwarding table holds.
const kernelNodes = 1024

// The reference kernel is a miniature discrete-event loop with the
// simulator's mix of work: a 4-ary heap of pointer events at a pending
// depth of 4096, a map lookup per event, and a small allocation on every
// event and a larger one every few events, so the garbage collector runs
// as it does under the simulator.
type kevent struct {
	at   int64
	node int32
	pkt  *kpkt
}

type kpkt struct {
	size, hops int32
	path       [6]int32
}

type kheap []*kevent

func (h *kheap) push(e *kevent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if s[p].at <= e.at {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *kheap) pop() *kevent {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	n := len(s)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if s[k].at < s[m].at {
				m = k
			}
		}
		if s[m].at >= last.at {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// kernelSink keeps the kernel's result live so the compiler cannot drop
// the work.
var kernelSink int64

// referenceKernel runs the kernel once and returns the CPU time it took.
// Its work is the same on every call.
func referenceKernel() time.Duration {
	c0 := cpuTime()
	fib := make(map[int32]int32, kernelNodes)
	for i := int32(0); i < kernelNodes; i++ {
		fib[i] = (i*7 + 3) % kernelNodes
	}
	x := uint64(88172645463325252)
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(kheap, 0, 8192)
	for i := 0; i < 4096; i++ {
		r := rnd()
		h.push(&kevent{at: int64(r % 1e6), node: int32(r % kernelNodes), pkt: &kpkt{size: 1500}})
	}
	var sum int64
	for n := 0; n < kernelEvents; n++ {
		e := h.pop()
		r := rnd()
		next := fib[e.node]
		p := e.pkt
		p.hops++
		p.path[p.hops%6] = next
		if p.hops > 8 {
			p = &kpkt{size: int32(64 + r%9000)}
		}
		sum += int64(p.size)
		h.push(&kevent{at: e.at + int64(1+r%1000), node: next, pkt: p})
	}
	kernelSink = sum
	return cpuTime() - c0
}

// hostScale converts a CPU time measured while the reference kernel took
// kernel (averaged over the calls before and after it) into seconds at
// the reference speed.
func hostScale(d, kernel time.Duration) float64 {
	return d.Seconds() * float64(refKernelCPU) / float64(kernel)
}
