package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/content"
	"repro/internal/firewall"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The layer ladder times each module's public functions on tiny fixed
// topologies, so a change to one layer shows in that layer's row even
// when the end-to-end workloads dilute it.

// ladderReps is how many times each rung repeats; the ladder reports
// the median ns/op. Allocation counts are exact and need no median.
const ladderReps = 3

// perOp is one rung's measurement.
type perOp struct{ ns, allocs float64 }

// timeOps runs body, which performs some operations and returns how
// many, and reports process CPU ns and heap allocations per operation.
func timeOps(body func() int) perOp {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := cpuTime()
	ops := body()
	d := cpuTime() - start
	runtime.ReadMemStats(&after)
	return perOp{
		ns:     float64(d.Nanoseconds()) / float64(ops),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

// repeat runs a rung ladderReps times and keeps the median ns/op and
// the last allocs/op.
func repeat(quick bool, rung func(quick bool) perOp) perOp {
	reps := ladderReps
	if quick {
		reps = 1
	}
	var ns []float64
	var last perOp
	for i := 0; i < reps; i++ {
		last = rung(quick)
		ns = append(ns, last.ns)
	}
	return perOp{ns: median(ns), allocs: last.allocs}
}

// ladder runs every rung and adds its metrics to m.
func ladder(m map[string]metric, quick bool) {
	ns := func(name string, v float64) { m[name] = metric{v, "ns"} }
	allocs := func(name string, v float64) { m[name] = metric{v, "allocs/op"} }

	fire := repeat(quick, simFire)
	ns("sim.fire_ns", fire.ns)
	allocs("sim.fire_allocs", fire.allocs)
	ns("sim.cancel_ns", repeat(quick, simCancel).ns)

	link := repeat(quick, func(q bool) perOp { return linkPackets(q, false) })
	ns("netsim.link_pkt_ns", link.ns)
	allocs("netsim.link_pkt_allocs", link.allocs)
	hop := repeat(quick, func(q bool) perOp { return linkPackets(q, true) })
	ns("netsim.hop_ns", hop.ns-link.ns)
	ns("netsim.fib_ns", repeat(quick, fibLookup).ns)
	ns("netsim.drop_ns", repeat(quick, queueDrops).ns)

	seg := repeat(quick, func(q bool) perOp { return tcpSegments(q, 0) })
	ns("tcp.segment_ns", seg.ns)
	allocs("tcp.segment_allocs", seg.allocs)
	ns("tcp.loss_segment_ns", repeat(quick, func(q bool) perOp { return tcpSegments(q, 1e-3) }).ns)

	fw := repeat(quick, firewallPackets)
	ns("firewall.pkt_ns", fw.ns)
	allocs("firewall.pkt_allocs", fw.allocs)

	hit := repeat(quick, storeHits)
	ns("content.get_hit_ns", hit.ns)
	evict := repeat(quick, storeEvictions)
	ns("content.insert_evict_ns", evict.ns)
	allocs("content.store_allocs", hit.allocs+evict.allocs)

	ns("fluid.tick_ns", repeat(quick, fluidTicks).ns)

	ns("telemetry.emit_off_ns", repeat(quick, func(q bool) perOp { return busEmit(q, false) }).ns)
	ns("telemetry.emit_on_ns", repeat(quick, func(q bool) perOp { return busEmit(q, true) }).ns)

	ns("shard.window_ns_1", repeat(quick, func(q bool) perOp { return shardWindows(q, 1) }).ns)
	ns("shard.window_ns_2", repeat(quick, func(q bool) perOp { return shardWindows(q, 2) }).ns)
}

// scaled shrinks a rung's operation count twentyfold for tests.
func scaled(quick bool, n int) int {
	if quick {
		return max(1, n/20)
	}
	return n
}

// simFire: AtCall plus fire at a steady pending depth of 4096. Every
// fired event schedules one successor a pseudo-random 1-4096 ns ahead.
type fireState struct {
	s *sim.Scheduler
	x uint64
}

func fireNext(a, _ any) {
	st := a.(*fireState)
	st.x = st.x*6364136223846793005 + 1442695040888963407
	st.s.AfterCall(0, time.Duration(1+st.x>>52), fireNext, st, nil)
}

func simFire(quick bool) perOp {
	st := &fireState{s: sim.New(), x: 1}
	for i := 0; i < 4096; i++ {
		fireNext(st, nil)
	}
	span := time.Duration(scaled(quick, 100)) * time.Microsecond
	return timeOps(func() int {
		before := st.s.Processed
		st.s.RunFor(span)
		return int(st.s.Processed - before)
	})
}

func noop(_, _ any) {}

// simCancel: schedule plus Timer.Stop over 4096 live pending events.
func simCancel(quick bool) perOp {
	s := sim.New()
	for i := 0; i < 4096; i++ {
		s.AfterCall(0, time.Duration(i+1)*time.Second, noop, nil, nil)
	}
	n := scaled(quick, 400000)
	return timeOps(func() int {
		for i := 0; i < n; i++ {
			s.AfterCall(0, time.Millisecond, noop, nil, nil).Stop()
		}
		return n
	})
}

var udpSink = netsim.FlowKey{Src: "a", Dst: "b", SrcPort: 9, DstPort: 9, Proto: netsim.ProtoUDP}

// sink binds a handler on h that recycles every delivered packet.
func sink(h *netsim.Host) {
	h.Bind(netsim.ProtoUDP, 9, netsim.HandlerFunc(func(p *netsim.Packet) { h.ReleasePacket(p) }))
}

// burst queues n 1500-byte packets from a to b at once.
func burst(a *netsim.Host, n int) {
	for i := 0; i < n; i++ {
		p := a.NewPacket()
		p.Flow = udpSink
		p.Size = 1500
		a.Send(p)
	}
}

// linkPackets: Host.Send to a sink over a backlogged 100 Gb/s link,
// directly or through one device.
func linkPackets(quick, viaDevice bool) perOp {
	n := netsim.New(1)
	a, b := n.NewHost("a"), n.NewHost("b")
	cfg := netsim.LinkConfig{Rate: 100 * units.Gbps, Delay: time.Microsecond, QueueA: units.GB, QueueB: units.GB}
	if viaDevice {
		d := n.NewDevice("d", netsim.DeviceConfig{EgressBuffer: units.GB})
		n.Connect(a, d, cfg)
		n.Connect(d, b, cfg)
	} else {
		n.Connect(a, b, cfg)
	}
	n.ComputeRoutes()
	sink(b)
	const batch = 10000
	rounds := scaled(quick, 10)
	return timeOps(func() int {
		for r := 0; r < rounds; r++ {
			burst(a, batch)
			n.RunFor(time.Second)
		}
		return rounds * batch
	})
}

// fibLookup: Host.RouteTo and Device.RouteTo over 66 destinations on a
// star.
func fibLookup(quick bool) perOp {
	n := netsim.New(1)
	d := n.NewDevice("d", netsim.DeviceConfig{})
	var names []string
	var hosts []*netsim.Host
	for i := 0; i < 66; i++ {
		h := n.NewHost(fmt.Sprintf("host-%02d", i))
		n.Connect(h, d, netsim.LinkConfig{Rate: units.Gbps})
		names = append(names, h.Name())
		hosts = append(hosts, h)
	}
	n.ComputeRoutes()
	ops := scaled(quick, 1000000)
	var found int
	r := timeOps(func() int {
		for i := 0; i < ops; i += 2 {
			dst := names[i%len(names)]
			if d.RouteTo(dst) != nil {
				found++
			}
			if hosts[0].RouteTo(dst) != nil {
				found++
			}
		}
		return ops
	})
	if found == 0 {
		panic("perfbench: fib ladder found no routes")
	}
	return r
}

// queueDrops: overflow drops at a full 3000-byte egress queue.
func queueDrops(quick bool) perOp {
	n := netsim.New(1)
	a, b := n.NewHost("a"), n.NewHost("b")
	n.Connect(a, b, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Microsecond, QueueA: 3000})
	n.ComputeRoutes()
	sink(b)
	const batch = 10000
	rounds := scaled(quick, 10)
	return timeOps(func() int {
		before := n.Conservation().Dropped
		for r := 0; r < rounds; r++ {
			burst(a, batch)
			n.RunFor(time.Second)
		}
		return int(n.Conservation().Dropped - before)
	})
}

// tcpSegments: one tuned flow over a 10 Gb/s, 1 ms link, per data
// segment acknowledged.
func tcpSegments(quick bool, loss float64) perOp {
	n := netsim.New(1)
	a, b := n.NewHost("a"), n.NewHost("b")
	cfg := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond, MTU: 9000}
	if loss > 0 {
		cfg.Loss = netsim.RandomLoss{P: loss}
	}
	n.Connect(a, b, cfg)
	n.ComputeRoutes()
	srv := tcp.NewServer(b, 5001, tcp.Tuned())
	size := units.ByteSize(scaled(quick, 200)) * units.MB
	conn := tcp.Dial(a, srv, size, tcp.Tuned(), nil)
	return timeOps(func() int {
		n.RunFor(time.Minute)
		return int(conn.Stats().BytesAcked) / conn.MSS()
	})
}

// firewallPackets: one established UDP session through host–fw–host. The
// sender's 1 Gb/s NIC paces the backlog below the inspection engine's
// rate, so nothing is dropped.
func firewallPackets(quick bool) perOp {
	n := netsim.New(1)
	a, b := n.NewHost("a"), n.NewHost("b")
	fw := firewall.New(n, "fw", firewall.Config{})
	n.Connect(a, fw, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Microsecond, QueueA: units.GB})
	n.Connect(fw, b, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Microsecond})
	n.ComputeRoutes()
	sink(b)
	burst(a, 1) // establish the session
	n.RunFor(time.Second)
	const batch = 10000
	rounds := scaled(quick, 5)
	return timeOps(func() int {
		for r := 0; r < rounds; r++ {
			burst(a, batch)
			n.RunFor(time.Second)
		}
		return rounds * batch
	})
}

func ladderChunks() []*content.Chunk {
	var chunks []*content.Chunk
	for _, ds := range content.Uniform("ladder", 64, units.MB, 256*units.KB).Datasets {
		chunks = append(chunks, ds.Chunks...)
	}
	return chunks
}

// storeHits: Store.Get on resident chunks.
func storeHits(quick bool) perOp {
	chunks := ladderChunks()
	s := content.NewStore(units.GB)
	for _, c := range chunks {
		s.Insert(c)
	}
	ops := scaled(quick, 1000000)
	return timeOps(func() int {
		for i := 0; i < ops; i++ {
			if !s.Get(chunks[i%len(chunks)]) {
				panic("perfbench: resident chunk missed")
			}
		}
		return ops
	})
}

// storeEvictions: Store.Insert of chunks cycling through 32× the
// budget, so every insert evicts.
func storeEvictions(quick bool) perOp {
	chunks := ladderChunks()
	s := content.NewStore(8 * 256 * units.KB)
	ops := scaled(quick, 500000)
	return timeOps(func() int {
		for i := 0; i < ops; i++ {
			s.Insert(chunks[i%len(chunks)])
		}
		return ops
	})
}

// fluidTicks: 100 aggregates on a packet-free dumbbell, per engine tick.
func fluidTicks(quick bool) perOp {
	n := netsim.New(1)
	left := n.NewDevice("left", netsim.DeviceConfig{})
	right := n.NewDevice("right", netsim.DeviceConfig{})
	n.Connect(left, right, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond})
	var ls, rs []*netsim.Host
	for i := 0; i < 10; i++ {
		l, r := n.NewHost(fmt.Sprintf("l%d", i)), n.NewHost(fmt.Sprintf("r%d", i))
		n.Connect(l, left, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
		n.Connect(r, right, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
		ls, rs = append(ls, l), append(rs, r)
	}
	n.ComputeRoutes()
	eng := fluid.New(n, fluid.Config{})
	for _, l := range ls {
		for _, r := range rs {
			if _, err := eng.Add(fluid.AggregateConfig{
				Name: l.Name() + "-" + r.Name(), Src: l.Name(), Dst: r.Name(),
				FlowsPerSecond: 100, Flows: 10, Window: 64 * units.KiB,
			}); err != nil {
				panic(err) // fixed valid configuration
			}
		}
	}
	eng.Start()
	span := time.Duration(scaled(quick, 100)) * time.Second
	return timeOps(func() int {
		n.RunFor(span)
		return int(eng.Ticks())
	})
}

// busEmit: Bus.Emit with no subscriber or one counting subscriber.
func busEmit(quick, subscribed bool) perOp {
	bus := telemetry.NewBus()
	var seen int
	if subscribed {
		bus.Subscribe(func(*telemetry.Event) { seen++ })
	}
	ev := telemetry.Event{Kind: telemetry.EvDrop, Node: "dept", Bytes: 1500}
	ops := scaled(quick, 500000)
	return timeOps(func() int {
		for i := 0; i < ops; i++ {
			ev.Packet = uint64(i)
			bus.Emit(ev)
		}
		return ops
	})
}

// shardWindows: a tuned flow across a 2-host cut link under the sharded
// engine, per synchronization window.
func shardWindows(quick bool, shards int) perOp {
	n := netsim.New(1)
	a, b := n.NewHost("a"), n.NewHost("b")
	n.Connect(a, b, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond, MTU: 9000}).MarkCut()
	n.ComputeRoutes()
	eng, err := shard.Install(n, shards)
	if err != nil {
		panic(err) // a marked cut between two hosts always partitions
	}
	srv := tcp.NewServer(b, 5001, tcp.Tuned())
	tcp.Dial(a, srv, -1, tcp.Tuned(), nil)
	span := time.Duration(scaled(quick, 100)) * time.Millisecond
	return timeOps(func() int {
		before := eng.Windows
		eng.RunFor(span)
		return int(eng.Windows - before)
	})
}
