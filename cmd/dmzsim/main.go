// Command dmzsim runs the paper-reproduction experiments and prints the
// tables and figures they regenerate.
//
// Usage:
//
//	dmzsim -list
//	dmzsim -run fig1
//	dmzsim -run all
//	dmzsim -sweep loss=1e-6..1e-2:8 -parallel 4
//	dmzsim -sweep rtt=1ms..100ms:6
//	dmzsim -faults scenario.json
//	dmzsim -faults scenario.json -fault-periods 15s,30s,60s,120s -parallel 4
//	dmzsim -faults scenario.json -serve localhost:8080
//	dmzsim -faults scenario.json -trace-spans spans.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// loadCatalog parses the -catalog file, or returns nil when none is set.
func loadCatalog(path string) (*content.Catalog, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return content.Parse(string(data))
}

// setupTelemetry wires the --trace / --metrics / --serve / --trace-spans
// flags: every network the selected experiments build attaches to one
// shared telemetry instance. The returned finish func writes the
// outputs after the run; wait blocks holding the -serve endpoint up
// until interrupted (a no-op otherwise).
func setupTelemetry(tracePath, metricsPath, serveAddr, spansPath string) (finish, wait func()) {
	noop := func() {}
	if tracePath == "" && metricsPath == "" && serveAddr == "" && spansPath == "" {
		return noop, noop
	}
	tele := telemetry.New()
	var traceFile *os.File
	var traceWriter *telemetry.JSONLWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		traceFile = f
		traceWriter = telemetry.NewJSONLWriter(f)
		tele.Bus.Subscribe(traceWriter.Write)
	}
	if metricsPath != "" {
		tele.SampleInterval = 100 * time.Millisecond
	}

	var col *trace.Collector
	if serveAddr != "" || spansPath != "" {
		col = trace.NewCollector()
		col.Attach(tele.Bus)
	}
	var srv *trace.Server
	if serveAddr != "" {
		if tele.SampleInterval <= 0 {
			tele.SampleInterval = 100 * time.Millisecond
		}
		var err error
		srv, err = trace.NewServer(serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving live observability on %s (/metrics /spans /healthz)\n", srv.URL())
		tele.OnSample(func(snap *telemetry.Snapshot) {
			srv.Publish(trace.BuildPublished(tele, col, snap.At, "running"))
		})
	}

	netsim.DefaultTelemetry = tele
	finish = func() {
		if traceWriter != nil {
			if err := traceWriter.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			traceFile.Close()
		}
		if metricsPath != "" {
			f, err := os.Create(metricsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := tele.WriteMetricsJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}
		if spansPath != "" {
			f, err := os.Create(spansPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-spans:", err)
				os.Exit(1)
			}
			err = trace.WriteChromeTrace(f, col)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-spans:", err)
				os.Exit(1)
			}
			// The span file is for Perfetto; the "why was it slow"
			// ranking goes to stdout, one report per transfer.
			for _, ft := range col.Flows() {
				trace.Analyze(ft, 0, col.Faults()).Render(os.Stdout)
			}
		}
		if srv != nil {
			srv.Publish(trace.BuildPublished(tele, col, col.Now(), "done"))
		}
	}
	wait = noop
	if srv != nil {
		wait = func() {
			fmt.Fprintf(os.Stderr, "run complete; final state stays up on %s (interrupt to exit)\n", srv.URL())
			select {}
		}
	}
	return finish, wait
}

// parseSweep parses a -sweep spec of the form axis=min..max[:points],
// where axis is "loss" (probabilities) or "rtt" (durations or seconds):
//
//	loss=1e-6..1e-2:8
//	rtt=1ms..100ms:6
func parseSweep(spec string) (experiments.SweepConfig, error) {
	var cfg experiments.SweepConfig
	axis, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return cfg, fmt.Errorf("sweep spec %q: want axis=min..max[:points]", spec)
	}
	cfg.Axis = axis
	if bounds, pts, ok := strings.Cut(rest, ":"); ok {
		n, err := strconv.Atoi(pts)
		if err != nil {
			return cfg, fmt.Errorf("sweep spec %q: bad point count %q", spec, pts)
		}
		cfg.Points = n
		rest = bounds
	}
	lo, hi, ok := strings.Cut(rest, "..")
	if !ok {
		return cfg, fmt.Errorf("sweep spec %q: want min..max bounds", spec)
	}
	var err error
	if cfg.Min, err = parseAxisValue(lo); err != nil {
		return cfg, fmt.Errorf("sweep spec %q: %v", spec, err)
	}
	if cfg.Max, err = parseAxisValue(hi); err != nil {
		return cfg, fmt.Errorf("sweep spec %q: %v", spec, err)
	}
	return cfg, nil
}

// parseAxisValue accepts a bare float (loss probability, RTT seconds) or
// a duration literal like 10ms.
func parseAxisValue(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad axis value %q (want a number or duration)", s)
}

// runFaults handles -faults: a single scenario run, or — when
// -fault-periods is set — a detection campaign sweeping BWCTL test
// cadence (and optionally -fault-severities) on the parallel harness.
func runFaults(path, periods, severities string, parallel int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := fault.ParseScenario(data)
	if err != nil {
		return err
	}
	if periods == "" {
		if severities != "" {
			return fmt.Errorf("-fault-severities requires -fault-periods (a campaign)")
		}
		rep, err := fault.Run(sc)
		if err != nil {
			return err
		}
		fmt.Println(rep.Render())
		return nil
	}
	cfg := fault.CampaignConfig{Base: sc, Parallel: parallel}
	for _, p := range strings.Split(periods, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("-fault-periods: %v", err)
		}
		cfg.Periods = append(cfg.Periods, d)
	}
	if severities != "" {
		for _, s := range strings.Split(severities, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("-fault-severities: %v", err)
			}
			cfg.Severities = append(cfg.Severities, v)
		}
	}
	res, err := fault.RunCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "experiment to run (or 'all')")
	sweep := flag.String("sweep", "", "run a parameter sweep, e.g. loss=1e-6..1e-2:8 or rtt=1ms..100ms:6")
	tracePath := flag.String("trace", "", "write a JSONL packet/TCP event trace to this file")
	metrics := flag.String("metrics", "", "write periodic metrics snapshots (JSON) to this file")
	serve := flag.String("serve", "", "serve live observability (/metrics /spans /healthz) on this address, e.g. localhost:8080")
	traceSpans := flag.String("trace-spans", "", "write a Chrome/Perfetto trace of per-transfer spans to this file and print critical-path reports")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	faults := flag.String("faults", "", "run a fault-injection scenario from this JSON file")
	faultPeriods := flag.String("fault-periods", "", "with -faults: comma-separated BWCTL test periods (e.g. 15s,30s,60s) to sweep as a detection campaign")
	faultSevs := flag.String("fault-severities", "", "with -fault-periods: comma-separated loss severities for the campaign's second axis")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS); results are identical at any value")
	cacheBudget := flag.Int64("cache-budget", 0, "with -run tier2: absolute content-cache byte budget (0 = 10% of catalog bytes)")
	catalogPath := flag.String("catalog", "", "with -run tier2: dataset catalog file, one 'name bytes chunk-bytes' per line (default: synthetic 240 x 1 MB)")
	shards := flag.Int("shards", 0, "run the simulated network on N parallel shards (0 = the classic single-scheduler path; results are byte-identical at any N)")
	flag.Parse()

	shard.SetDefaultPlan(*shards)

	finishProfiling := setupProfiling(*cpuprofile, *memprofile, *pprofAddr)
	finish, wait := setupTelemetry(*tracePath, *metrics, *serve, *traceSpans)

	switch {
	case *faults != "":
		if err := runFaults(*faults, *faultPeriods, *faultSevs, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *sweep != "":
		if *tracePath != "" || *metrics != "" || *serve != "" || *traceSpans != "" {
			fmt.Fprintln(os.Stderr, "warning: -trace/-metrics/-serve/-trace-spans are ignored by -sweep: sweep workers run isolated from the shared telemetry plane")
		}
		cfg, err := parseSweep(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Parallel = *parallel
		res, err := experiments.RunSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
	case *list:
		for _, e := range experiments.Registry {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
	case *run != "":
		var selected []experiments.Experiment
		for _, e := range experiments.Registry {
			if *run == "all" || *run == e.Name {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		cat, err := loadCatalog(*catalogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-catalog:", err)
			os.Exit(1)
		}
		opts := experiments.Options{Parallel: *parallel, CacheBudget: units.ByteSize(*cacheBudget), Catalog: cat}
		for _, e := range selected {
			if *run == "all" {
				fmt.Printf("=== %s ===\n", e.Name)
			}
			fmt.Println(e.Run(opts).Render())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	finish()
	finishProfiling()
	wait()
}
