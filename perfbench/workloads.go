package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/dtn"
	"repro/internal/flowgen"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/units"
)

// A workload builds one closed simulation job from a seed. Every RNG of
// the job (the network's, the flow generator's, the reader population's)
// is fed from that seed, so the same seed gives the same job.
type workload struct {
	name string
	// build is the set-up the benchmark times: topology, routes and
	// generators, up to the first simulated event. quick shrinks the
	// job for tests; the benchmark always measures the full size.
	build func(seed int64, quick bool) *job
}

// A job is one built workload, ready to run to its horizon.
type job struct {
	net *netsim.Network
	// advance runs the simulation to the workload's horizon.
	advance func()
	// ops reports the operations started (transfers, mice flows,
	// dataset pulls) and how many of them were complete.
	ops func() (started, done int)
	// extra appends workload-specific lines to the digest.
	extra func(b *strings.Builder)
	// check verifies the workload's simulated outputs.
	check func() error

	transfers []*dtn.Transfer
	cache     *content.Cache
	fluid     *fluid.Engine
}

var workloads = []workload{
	{
		name:  "dmz-bulk",
		build: buildBulk,
	},
	{
		name:  "campus-mice",
		build: buildCampus,
	},
	{
		name:  "tier2-cache",
		build: buildTier2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// dmz-bulk: a fixed-size GridFTP transfer from the remote DTN to the
// site DTN across a 10 Gb/s, 25 ms RTT, 9000-MTU WAN with 1e-5 random
// loss (the topo defaults plus the loss model).
func buildBulk(seed int64, quick bool) *job {
	// Most seeds finish in about 1 s of simulated time, but one loss in
	// congestion avoidance can leave a Reno stream crawling for several
	// seconds (5.7 s at seed 101); the horizon leaves room for that.
	size, horizon := 900*units.MB, 20*time.Second
	if quick {
		size = 40 * units.MB
	}
	d := topo.NewSimpleDMZ(seed, topo.SimpleDMZConfig{
		WAN: topo.WANConfig{Loss: netsim.RandomLoss{P: 1e-5}},
	})
	tr := dtn.GridFTP{Streams: 8}.Start(d.RemoteDTN, d.DTN, size, nil)
	j := &job{net: d.Net, transfers: []*dtn.Transfer{tr}}
	j.advance = func() { d.Net.RunFor(horizon) }
	j.ops = func() (int, int) { return 1, boolInt(tr.Result().Done) }
	j.check = func() error { return checkTransfer(tr, size) }
	return j
}

// campus-mice: the general-purpose campus with 32 offices. Office hosts
// exchange Poisson mice; a tuned science transfer crosses the firewall
// from the WAN; half the offices send fluid enterprise load to the WAN.
func buildCampus(seed int64, quick bool) *job {
	offices, science := 32, 60*units.MB
	arrivals, horizon := time.Second, 5*time.Second
	if quick {
		offices, science = 8, 8*units.MB
		arrivals, horizon = 100*time.Millisecond, 1500*time.Millisecond
	}
	c := topo.NewCampus(seed, topo.CampusConfig{ScienceTuned: true, Offices: offices})
	eng := fluid.New(c.Net, fluid.Config{})
	if _, err := flowgen.StartBusinessFluid(eng, c.RemoteDTN.Host, c.OfficeHosts[:offices/2], flowgen.BusinessFluid{
		Name:           "enterprise",
		FlowsPerSecond: 4000,
		MeanSize:       25 * units.KB,
		Flows:          400,
	}); err != nil {
		panic(err) // the configuration above is valid by construction
	}
	eng.Start()
	mice := flowgen.StartBusiness(c.OfficeHosts[0], c.OfficeHosts[1:], flowgen.Business{
		Name:           "mice",
		FlowsPerSecond: 2000,
	}, seed)
	tr := dtn.GridFTP{}.Start(c.RemoteDTN, c.ScienceHost, science, nil)

	j := &job{net: c.Net, transfers: []*dtn.Transfer{tr}, fluid: eng}
	j.advance = func() {
		c.Net.RunFor(arrivals)
		mice.Stop()
		c.Net.RunFor(horizon - arrivals)
	}
	j.ops = func() (int, int) {
		return mice.Started + 1, mice.Completed + boolInt(tr.Result().Done)
	}
	j.extra = func(b *strings.Builder) {
		fmt.Fprintf(b, "mice started=%d completed=%d bytes=%d\n", mice.Started, mice.Completed, mice.Bytes)
		fmt.Fprintf(b, "firewall %+v\n", c.Firewall.Stats)
		fmt.Fprintf(b, "fluid ticks=%d offered=%d delivered=%d\n",
			eng.Ticks(), flowgen.FluidOffered(eng.Aggregates()), flowgen.FluidDelivered(eng.Aggregates()))
	}
	j.check = func() error {
		if c.Firewall.Stats.Inspected == 0 {
			return fmt.Errorf("campus-mice: the science transfer never crossed the firewall")
		}
		if eng.Ticks() == 0 {
			return fmt.Errorf("campus-mice: the fluid engine never ticked")
		}
		return checkTransfer(tr, science)
	}
	return j
}

// tier2-cache: 64 readers pull from a 240 × 1 MB catalog (256 KB chunks)
// with Zipf skew 1.0 through a DMZ-switch cache holding 10% of the
// catalog, with request aggregation, until every reader is done.
func buildTier2(seed int64, quick bool) *job {
	readers, pulls := 64, 40
	if quick {
		readers, pulls = 8, 3
	}
	cat := content.Uniform("ds", 240, units.MB, 256*units.KB)
	t := topo.NewTier2(seed, topo.Tier2Config{
		Catalog:     cat,
		Readers:     readers,
		CacheBudget: cat.TotalBytes / 10,
	})
	pop := content.NewPopulation(t.Readers, content.PopulationConfig{
		Origin:         t.OriginHost.Name(),
		Catalog:        cat,
		PullsPerReader: pulls,
		Skew:           1.0,
		Seed:           seed,
	})
	const maxSim = 60 * time.Second
	j := &job{net: t.Net, cache: t.Cache}
	j.advance = func() {
		for t.Net.Now().Seconds() < maxSim.Seconds() && !pop.Done() {
			t.Net.RunFor(100 * time.Millisecond)
		}
	}
	j.ops = func() (int, int) {
		return readers * pulls, len(pop.PullDurations())
	}
	j.extra = func(b *strings.Builder) {
		cached, origin, bytes := pop.ChunksServed()
		fmt.Fprintf(b, "pulls cached-chunks=%d origin-chunks=%d bytes=%d wan-egress=%d\n",
			cached, origin, bytes, t.WANEgressBytes())
	}
	j.check = func() error {
		done := len(pop.PullDurations())
		if cached, origin, bytes := pop.ChunksServed(); cached+origin != done*4 || bytes != units.ByteSize(done)*units.MB {
			return fmt.Errorf("tier2-cache: %d pulls done but %d+%d chunks, %v received", done, cached, origin, bytes)
		}
		if t.Cache.Hits == 0 {
			return fmt.Errorf("tier2-cache: the cache served nothing")
		}
		return nil
	}
	return j
}

// checkTransfer verifies that a finished transfer acknowledged exactly
// its size across its streams; an unfinished one is a failed operation,
// not a wrong output.
func checkTransfer(tr *dtn.Transfer, size units.ByteSize) error {
	r := tr.Result()
	if !r.Done {
		return nil
	}
	var acked units.ByteSize
	for _, st := range r.PerStream {
		acked += st.BytesAcked
	}
	if acked != size {
		return fmt.Errorf("%s transfer acknowledged %v of %v", r.Tool, acked, size)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
