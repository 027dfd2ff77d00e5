// Command perfbench is the repository benchmark: the host cost of
// paper-shaped simulator runs, end to end with tracing off, and per layer
// in a separate traced run. Run it through run.py from the repository
// root; README.md in this directory maps every metric to the layer and
// workload it speaks for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"conga"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "benchmark seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed runs last")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the traced run's CPU profile")
	source := flag.String("source", "", "digest of the benchmarked source tree, for the manifest")
	describe := flag.String("describe", "", "git describe of the benchmarked tree, for the manifest")
	record := flag.String("record-reference", "", "record reference digests into this file and exit")
	probe := flag.Bool("probe-pending", false, "measure the pending-event counts behind the isolated engine loop and exit")
	flag.Parse()

	if *record != "" {
		return recordReferences(*record)
	}
	if *probe {
		return probeAll()
	}
	sp, err := findSpec(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	in, err := newInputs(sp, *seed)
	if err != nil {
		return err
	}
	b := &bench{sp: sp, seed: *seed, in: in, refs: refs, window: time.Duration(*seconds * float64(time.Second))}

	man, err := json.Marshal(manifest(sp, *seed, *seconds, *trace, *source, *describe))
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s\n", man)

	var res *result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer(*out)
	}
	if err != nil {
		return err
	}
	for _, e := range b.errs {
		fmt.Println("FAIL", e)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// setupShare and calShare are the time spent repeating setup and the
// calibration unit after each run, as shares of that run's wall time.
const (
	setupShare = 0.05
	calShare   = 0.10
)

// endToEndMetrics are printed with tracing off. fail_frac is reported
// through the result's attempted/failed counts and the printed table: it
// is 0 on a healthy tree, and a gated metric must never read 0.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"flows_per_s", "1/s"}, {"setup_s", "s"},
	{"alloc_mb", "MB"}, {"max_rss_mb", "MB"},
}

// perLayerMetrics are printed by the traced run.
var perLayerMetrics = func() []metricDef {
	var m []metricDef
	for _, l := range layers {
		m = append(m, metricDef{l + ".self_s", "s"}, metricDef{l + ".self_frac", "fraction"})
	}
	return append(m,
		metricDef{"sim.events", "count"}, metricDef{"sim.ns_per_event", "ns"}, metricDef{"sim.engine_ns_per_event", "ns"},
		metricDef{"fabric.pkt_hops", "count"}, metricDef{"fabric.drops", "count"},
		metricDef{"fabric.events_per_hop", "ratio"}, metricDef{"fabric.build_s", "s"},
		metricDef{"core.decisions", "count"}, metricDef{"core.sticky_frac", "fraction"},
		metricDef{"core.flowlet_evicts", "count"}, metricDef{"core.select_ns", "ns"},
		metricDef{"tcp.retx", "count"}, metricDef{"tcp.timeouts", "count"}, metricDef{"tcp.fast_retx", "count"},
		metricDef{"workload.pregen_s", "s"}, metricDef{"workload.arrivals", "count"},
		metricDef{"telemetry.flush_s", "s"}, metricDef{"telemetry.trace_suppressed", "count"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"trace_overhead_frac", "fraction"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line; report holds the
// human-readable lines printed before it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	report    []string
}

func (r *result) set(defs []metricDef, name string, v float64, note string) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{v, d.unit}
			r.report = append(r.report, fmt.Sprintf("%-28s %14.6g %-8s %s", name, v, d.unit, note))
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// bench runs one workload.
type bench struct {
	sp     *spec
	seed   uint64
	in     *inputs
	refs   references
	window time.Duration

	attempted, failed int
	errs              []string
}

// sample is one measured run.
type sample struct {
	x        input
	wall     float64 // seconds
	cpu      float64 // user+sys seconds
	allocMB  float64
	rssMB    float64 // peak resident set during the run
	gcCycles float64
	gcPause  float64 // seconds
	events   uint64
	out      outcome
	reg      *conga.TelemetryRegistry
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter, so the next peakRSSMB reading belongs to one run.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runOnce executes one simulation of input x through the public entry
// point. A traced run (profile set) turns on the counter and decision
// probes, the ones that keep idle-path fusion on, and writes a CPU profile
// of the simulation call alone to profile; workloads that carry their own
// telemetry keep it unchanged.
func (b *bench) runOnce(x input, profile string) (sample, error) {
	s := sample{x: x}
	var tel *conga.TelemetryOptions
	if profile != "" {
		tel = &conga.TelemetryOptions{Counters: true, Decisions: true}
	}
	if err := resetPeakRSS(); err != nil {
		return s, fmt.Errorf("reset peak RSS: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var stopProfile func() error
	if profile != "" {
		var err error
		if stopProfile, err = startProfile(profile); err != nil {
			return s, err
		}
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	var err error
	if b.sp.incast != nil {
		cfg := b.sp.incastConfig(x)
		if tel != nil {
			cfg.Telemetry = tel
		}
		var r *conga.IncastResult
		if r, err = conga.RunIncast(cfg); err == nil {
			s.out, s.events, s.reg = incastOutcome(r, cfg.Rounds), r.Events, r.Telemetry
		}
	} else {
		cfg := b.sp.fctConfig(x)
		if tel != nil && cfg.Telemetry == nil {
			cfg.Telemetry = tel
		}
		var r *conga.FCTResult
		if r, err = conga.RunFCT(cfg); err == nil {
			s.out, s.events, s.reg = fctOutcome(r, x), r.Events, r.Telemetry
		}
	}
	s.wall = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - c0
	if stopProfile != nil {
		if e := stopProfile(); e != nil && err == nil {
			err = e
		}
	}
	if rss, e := peakRSSMB(); e != nil && err == nil {
		err = e
	} else {
		s.rssMB = rss
	}
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.gcCycles = float64(m1.NumGC - m0.NumGC)
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs).Seconds()
	return s, err
}

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// measure runs input x, profiled into profile when that is set (a traced
// run), checks its outcome against want (when non-zero) and the reference
// digests, and counts it.
func (b *bench) measure(x input, profile string, want uint64) (sample, bool) {
	traced := profile != ""
	b.attempted++
	s, err := b.runOnce(x, profile)
	if err == nil {
		err = s.out.err
	}
	if err == nil && want != 0 && s.out.digest != want {
		err = fmt.Errorf("digest %016x differs from an earlier run of the same input (%016x)", s.out.digest, want)
	}
	if err == nil {
		err = b.refs.check(b.sp.name, b.seed, x.index, s.out.digest)
	}
	if err != nil {
		b.fail(x, traced, err)
		return s, false
	}
	return s, true
}

// fail counts a failed run and keeps its reason for the report.
func (b *bench) fail(x input, traced bool, err error) {
	b.failed++
	b.errs = append(b.errs, fmt.Sprintf("run %d (seed %d, traced=%v): %v", x.index, x.seed, traced, err))
}

// timedLoop runs inputs 0, 1, 2, ... until the window has passed (and at
// least minRuns ran), calling after once each run is done. Input 0 is
// compared with the warm-up run, so every process checks determinism at
// least once.
func (b *bench) timedLoop(window time.Duration, minRuns int, want func(i int) uint64, after func(sample) error) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < window; i++ {
		x, err := b.in.get(i)
		if err != nil {
			return nil, err
		}
		s, ok := b.measure(x, "", want(i))
		if !ok {
			continue
		}
		s.reg = nil
		out = append(out, s)
		if err := after(s); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, errors.New("every run failed: " + strings.Join(b.errs, "; "))
	}
	return out, nil
}

func (b *bench) warmUp() (uint64, error) {
	x, err := b.in.get(0)
	if err != nil {
		return 0, err
	}
	s, ok := b.measure(x, "", 0)
	if !ok {
		return 0, nil
	}
	return s.out.digest, nil
}

// setupTimer times the config-to-first-event constructor sequence
// (spec.rebuild). Its repetitions are spread through the timed window, a
// few after every run, so they sample the host in the states the runs do.
type setupTimer struct {
	sp *spec
	x  input
	ds []float64
}

func (st *setupTimer) rep() error {
	runtime.GC()
	t0 := time.Now()
	_, err := st.sp.rebuild(st.x, nil)
	st.ds = append(st.ds, time.Since(t0).Seconds())
	return err
}

// reps repeats setup until budget has passed, at least once.
func (st *setupTimer) reps(budget time.Duration) error {
	start := time.Now()
	for {
		if err := st.rep(); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

func (b *bench) endToEnd() (*result, error) {
	x0, err := b.in.get(0)
	if err != nil {
		return nil, err
	}
	st := &setupTimer{sp: b.sp, x: x0}
	if err := st.reps(0); err != nil { // warm-up, not counted
		return nil, err
	}
	st.ds = nil
	var cal calibration
	cal.units(0) // warm-up, not counted
	cal = calibration{}
	warm, err := b.warmUp()
	if err != nil {
		return nil, err
	}
	runs, err := b.timedLoop(b.window, 5, func(i int) uint64 {
		if i == 0 {
			return warm
		}
		return 0
	}, func(s sample) error {
		cal.units(time.Duration(calShare * s.wall * float64(time.Second)))
		return st.reps(time.Duration(setupShare * s.wall * float64(time.Second)))
	})
	if err != nil {
		return nil, err
	}
	col := func(f func(sample) float64) []float64 {
		v := make([]float64, len(runs))
		for i, s := range runs {
			v[i] = f(s)
		}
		return v
	}
	// Time metrics are in reference seconds (see calibrate.go); the notes
	// give the raw values.
	ws, cs := cal.wallScale(), cal.cpuScale()
	wall := median(col(func(s sample) float64 { return s.wall }))
	cpu := median(col(func(s sample) float64 { return s.cpu }))
	flows := median(col(func(s sample) float64 { return float64(s.out.flows) / s.wall }))
	setup := median(st.ds)
	res := b.newResult()
	res.set(endToEndMetrics, "wall_s", wall*ws, fmt.Sprintf("%s; raw %.6g", spread(col(func(s sample) float64 { return s.wall * ws })), wall))
	res.set(endToEndMetrics, "cpu_s", cpu*cs, fmt.Sprintf("median of %d runs; raw %.6g", len(runs), cpu))
	res.set(endToEndMetrics, "flows_per_s", flows/ws, fmt.Sprintf("completed flows per wall second, median; raw %.6g", flows))
	res.set(endToEndMetrics, "setup_s", setup*ws, fmt.Sprintf("median of %d; raw %.6g", len(st.ds), setup))
	// A run's allocation is set by its input, with no tail, so the mean
	// over inputs is a steadier estimate than the median.
	res.set(endToEndMetrics, "alloc_mb", mean(col(func(s sample) float64 { return s.allocMB })), "mean bytes allocated per run")
	res.set(endToEndMetrics, "max_rss_mb", median(col(func(s sample) float64 { return s.rssMB })), "median per-run peak RSS of this process")
	res.report = append(res.report,
		fmt.Sprintf("%-28s %14.6g %-8s %d of %d runs", "fail_frac", float64(b.failed)/float64(b.attempted), "fraction", b.failed, b.attempted),
		fmt.Sprintf("%-28s %14.6g %-8s median of %d units; reference %g s; cpu %.6g s", "calibration_unit", median(cal.walls), "s", len(cal.walls), calRefSeconds, median(cal.cpus)))
	return res, nil
}

func (b *bench) newResult() *result {
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
}

// perLayer runs each input twice, untraced and traced, alternating which
// goes first so drift in the host's speed cancels out of
// trace_overhead_frac. Only the traced runs are profiled.
func (b *bench) perLayer(outDir string) (*result, error) {
	warm, err := b.warmUp()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var traced []sample
	var profiles []string
	// One run of an input can differ from the next by 10-20% on a shared
	// host, so the overhead is taken over the sums of all pairs.
	var tracedWall, plainWall float64
	var pairs int
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < b.window; i++ {
		x, err := b.in.get(i)
		if err != nil {
			return nil, err
		}
		want := uint64(0)
		if i == 0 {
			want = warm
		}
		var plain, tr sample
		var okPlain, okTraced bool
		path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d-%d.pprof", b.sp.name, b.seed, i))
		if i%2 == 1 {
			tr, okTraced = b.measure(x, path, want)
		}
		plain, okPlain = b.measure(x, "", want)
		if i%2 == 0 {
			tr, okTraced = b.measure(x, path, want)
		}
		// Telemetry must not perturb the simulation.
		if okPlain && okTraced && plain.out.digest != tr.out.digest {
			b.fail(x, true, fmt.Errorf("traced digest %016x differs from untraced %016x", tr.out.digest, plain.out.digest))
			okTraced = false
		}
		if !okTraced {
			continue
		}
		profiles = append(profiles, path)
		if i > 0 {
			tr.reg = nil // counters are read from input 0 only
		}
		traced = append(traced, tr)
		if okPlain {
			tracedWall += tr.wall
			plainWall += plain.wall
			pairs++
		}
	}
	if len(traced) == 0 || traced[0].x.index != 0 {
		return nil, errors.New("traced run of input 0 failed: " + strings.Join(b.errs, "; "))
	}
	self, err := profileSelfTimes(profiles)
	if err != nil {
		return nil, err
	}

	res := b.newResult()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	n := float64(len(traced))
	for _, l := range layers {
		res.set(perLayerMetrics, l+".self_s", self[l].Seconds()/n, "CPU profile self time per traced run")
		res.set(perLayerMetrics, l+".self_frac", ratio(float64(self[l]), float64(total)), "share of profiled CPU time")
	}

	// Counters come from input 0's traced run, so they repeat exactly for a
	// given seed.
	s0 := traced[0]
	reg := s0.reg
	var events uint64
	for _, s := range traced {
		events += s.events
	}
	hops, _, drops, _ := reg.LinkTotals()
	dec := reg.DecisionTotals()
	decisions := dec.Sticky + dec.NewFlowlet + dec.Expired + dec.Evicted
	_, _, evicts := reg.FlowletTotals()
	tcpT := reg.TCPTotals()
	res.set(perLayerMetrics, "sim.events", float64(s0.events), "executed events, input 0")
	res.set(perLayerMetrics, "sim.ns_per_event", ratio(self["sim"].Seconds()*1e9, float64(events)), "sim self time per executed event")
	res.set(perLayerMetrics, "sim.engine_ns_per_event", engineNsPerEvent(b.sp.engine), "isolated At/Run loop")
	res.set(perLayerMetrics, "fabric.pkt_hops", float64(hops), "link enqueues, input 0")
	res.set(perLayerMetrics, "fabric.drops", float64(drops), "link drops, input 0")
	res.set(perLayerMetrics, "fabric.events_per_hop", ratio(float64(s0.events), float64(hops)), "sim.events / fabric.pkt_hops")
	build, err := buildSeconds(b.sp, s0.x.seed)
	if err != nil {
		return nil, err
	}
	res.set(perLayerMetrics, "fabric.build_s", build, "isolated NewNetwork loop")
	res.set(perLayerMetrics, "core.decisions", float64(decisions), "SelectUplink outcomes, input 0")
	res.set(perLayerMetrics, "core.sticky_frac", ratio(float64(dec.Sticky), float64(decisions)), "served by a live flowlet")
	res.set(perLayerMetrics, "core.flowlet_evicts", float64(evicts), "input 0")
	top := b.sp.topology()
	res.set(perLayerMetrics, "core.select_ns", selectNs(top.Leaves, top.Spines*top.LinksPerSpine, b.seed), "isolated SelectUplink loop")
	res.set(perLayerMetrics, "tcp.retx", float64(tcpT.Retransmits), "input 0")
	res.set(perLayerMetrics, "tcp.timeouts", float64(tcpT.Timeouts), "input 0")
	res.set(perLayerMetrics, "tcp.fast_retx", float64(tcpT.FastRetx), "input 0")
	var pregen float64
	if b.sp.fct != nil {
		if pregen, err = pregenSeconds(b.in, s0.x); err != nil {
			return nil, err
		}
	}
	res.set(perLayerMetrics, "workload.pregen_s", pregen, "isolated Pregenerate loop, input 0")
	res.set(perLayerMetrics, "workload.arrivals", float64(s0.x.flows), "input 0")
	flush, err := flushSeconds(reg)
	if err != nil {
		return nil, err
	}
	res.set(perLayerMetrics, "telemetry.flush_s", flush, "FlushSink into a discarding sink")
	res.set(perLayerMetrics, "telemetry.trace_suppressed", float64(reg.Trace().Info().Suppressed), "input 0")
	var gcs, pauses []float64
	for _, s := range traced {
		gcs, pauses = append(gcs, s.gcCycles), append(pauses, s.gcPause)
	}
	res.set(perLayerMetrics, "runtime.gc_cycles", mean(gcs), "per traced run")
	res.set(perLayerMetrics, "runtime.gc_pause_s", mean(pauses), "per traced run")
	res.set(perLayerMetrics, "trace_overhead_frac", ratio(tracedWall, plainWall)-1, fmt.Sprintf("summed traced/untraced wall over %d paired inputs, minus 1", pairs))
	return res, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread describes a timing sample: its size and the highest percentile
// with at least ten samples beyond it, when there is one above the median.
func spread(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	note := fmt.Sprintf("median of %d runs", n)
	if k := n - 11; k > n/2 {
		note += fmt.Sprintf(", p%d %.6g", 100*(k+1)/n, s[k])
	}
	return note
}

// manifest records what produced a result.
func manifest(sp *spec, seed uint64, seconds float64, trace int, source, describe string) map[string]any {
	m := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"describe":   describe,
		"source":     source,
		"workload":   sp.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
	t := sp.topology()
	cfg := map[string]any{
		"topology": fmt.Sprintf("%d leaves x %d spines x %d links, %d hosts/leaf, %gG access, %gG fabric, failed %v",
			t.Leaves, t.Spines, t.LinksPerSpine, t.HostsPerLeaf, t.AccessGbps, t.FabricGbps, t.FailedLinks),
		"scheme": conga.SchemeName(sp.scheme()),
	}
	if c := sp.fct; c != nil {
		cfg["workload"] = c.Workload.String()
		cfg["load"] = c.Load
		cfg["min_rto"] = c.Transport.MinRTO.String()
		cfg["arrival_window"] = c.Duration.String()
		cfg["budget_bytes"] = sp.budget
		cfg["telemetry"] = c.Telemetry != nil
	} else {
		c := sp.incast
		cfg["transport"] = c.Transport.Kind.String()
		cfg["subflows"] = c.Transport.Subflows
		cfg["min_rto"] = c.Transport.MinRTO.String()
		cfg["fanout"] = c.Fanout
		cfg["request_bytes"] = c.RequestBytes
		cfg["rounds"] = c.Rounds
	}
	m["config"] = cfg
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// referenceSeeds and referenceRuns bound the recorded digests: the first
// referenceRuns inputs of each of these benchmark seeds.
var referenceSeeds = []uint64{1, 2, 3}

const referenceRuns = 4

func recordReferences(path string) error {
	refs := references{}
	for _, sp := range specs {
		refs[sp.name] = map[string][]string{}
		for _, seed := range referenceSeeds {
			in, err := newInputs(sp, seed)
			if err != nil {
				return err
			}
			b := &bench{sp: sp, seed: seed, in: in, refs: references{}}
			for i := 0; i < referenceRuns; i++ {
				x, err := in.get(i)
				if err != nil {
					return err
				}
				s, ok := b.measure(x, "", 0)
				if !ok {
					return errors.New(strings.Join(b.errs, "; "))
				}
				key := strconv.FormatUint(seed, 10)
				refs[sp.name][key] = append(refs[sp.name][key], fmtDigest(s.out.digest))
				fmt.Fprintf(os.Stderr, "%s seed %d run %d: %016x (%d flows, %.3fs)\n", sp.name, seed, i, s.out.digest, s.out.flows, s.wall)
			}
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
