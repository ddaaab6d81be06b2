package experiments

import (
	"time"

	"repro/internal/content"
	"repro/internal/units"
)

// Options carries the run settings dmzsim exposes as flags. The zero
// value is the default run, the one the goldens pin.
type Options struct {
	// Parallel is the sweep worker count for experiments on the harness;
	// zero means GOMAXPROCS. Output is byte-identical at every value.
	Parallel int
	// CacheBudget is tier2's absolute content-cache byte budget; zero
	// means 10% of catalog bytes.
	CacheBudget units.ByteSize
	// Catalog replaces tier2's synthetic dataset catalog when non-nil.
	Catalog *content.Catalog
}

// Result is any experiment outcome.
type Result interface{ Render() string }

// Experiment is one registered paper artifact.
type Experiment struct {
	Name        string
	Description string
	Run         func(Options) Result
}

// Registry is the one list of experiments, sorted by name. dmzsim, the
// root benchmarks and the golden tests all iterate it.
var Registry = []Experiment{
	{"audit", "pattern audit across notional designs", fixed(AuditDesigns)},
	{"fig1", "Figure 1: TCP throughput vs RTT under loss (Mathis, Reno, H-TCP)",
		func(o Options) Result { return Fig1(Fig1Config{Parallel: o.Parallel}) }},
	{"fig2", "Figure 2: perfSONAR dashboard mesh with a soft-failing site", fixed(Fig2)},
	{"fig3", "Figure 3: simple Science DMZ vs general-purpose campus path", fixed(Fig3)},
	{"fig4", "Figure 4: supercomputer center DTN vs login-node ingestion", fixed(Fig4)},
	{"fig5", "Figure 5: big-data site transfer cluster", fixed(Fig5)},
	{"fig67", "§6.1/Figures 6-7: UC Boulder physics cluster fan-in", fixed(Fig67)},
	{"fig8", "§6.2/Figure 8: Penn State firewall sequence checking", fixed(Fig8)},
	{"hybrid", "hybrid fluid/packet engine: validation + background scaling", fixed(Hybrid)},
	{"linecard", "§2.1: failing line card invisible to SNMP, caught by OWAMP", fixed(LineCard)},
	{"nersc", "§6.4: NERSC<->OLCF carbon-14 dataset", fixed(NERSC)},
	{"noaa", "§6.3: NOAA reforecast repatriation (FTP vs DTN)", fixed(NOAA)},
	{"roce", "§7.1: RoCE on virtual circuits, CPU comparison", fixed(RoCE)},
	{"sawtooth", "§2.1 dynamics: cwnd sawtooth under periodic loss",
		func(Options) Result { return Sawtooth(20*time.Millisecond, 2*time.Second, 10*time.Second) }},
	{"sdnbypass", "§7.3: OpenFlow IDS-gated firewall bypass", fixed(SDNBypass)},
	{"tier2", "Tier-2 dataset pulls: in-network content caching vs WAN egress",
		func(o Options) Result { return Tier2(Tier2Config{Budget: o.CacheBudget, Catalog: o.Catalog}) }},
}

// fixed adapts an experiment that takes no options.
func fixed[R Result](run func() R) func(Options) Result {
	return func(Options) Result { return run() }
}
