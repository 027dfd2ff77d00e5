package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"conga"
	"conga/internal/sim"
	"conga/internal/workload"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"conga/internal/fabric.(*Link).Send":                                "conga/internal/fabric",
		"conga.RunFCT.func1":                                                "conga",
		"runtime.mallocgc":                                                  "runtime",
		"slices.Sort[go.shape.[]int,go.shape.int]":                          "slices",
		"internal/runtime/atomic.(*Pointer[go.shape.struct { a.b }]).Store": "internal/runtime/atomic",
		"main.(*bench).runOnce":                                             "main",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A small profile in `go tool pprof -traces` form: standard-library and
// non-allocating runtime leaves (memmove, map access) belong to their
// nearest repository caller; allocator and GC stacks to runtime; the
// benchmark's own frames, the profiler and scheduler work no layer called
// to other.
const tracesFixture = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 150ms (15.00%)
-----------+-------------------------------------------------------
      30ms   conga/internal/fabric.(*Link).Send
             conga/internal/fabric.(*LeafSwitch).forward
             conga.RunFCT
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             conga/internal/tcp.(*Sender).sendSegment
-----------+-------------------------------------------------------
      10ms   sort.insertionSort (inline)
             sort.Slice
             conga.runFCT
             conga.RunFCT
             main.(*bench).runOnce
-----------+-------------------------------------------------------
      40ms   math.Exp
             conga/internal/sim.(*Rand).ExpFloat64
             conga/internal/workload.(*Generator).scheduleNext
-----------+-------------------------------------------------------
      1.5ms  runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime/pprof.(*profileBuilder).addCPUData
             runtime/pprof.profileWriter
-----------+-------------------------------------------------------
      10ms   main.median
             main.main
-----------+-------------------------------------------------------
      10ms   conga/internal/replay.(*Recorder).Add
-----------+-------------------------------------------------------
       5ms   runtime.memmove
             conga/internal/fabric.(*Link).enqueue
-----------+-------------------------------------------------------
       7ms   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess2_fast64
             conga/internal/core.(*FlowletTable).Lookup
-----------+-------------------------------------------------------
       3ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.makeslice
             conga/internal/stats.NewFCTRecorder
-----------+-------------------------------------------------------
       2ms   runtime.futex
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
`

func TestParseTracesGroupsByLayer(t *testing.T) {
	got, err := parseTraces(tracesFixture)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"fabric":  35 * ms,
		"core":    7 * ms,
		"runtime": 23*ms + 1500*time.Microsecond,
		"harness": 10 * ms,
		"sim":     40 * ms,
		"other":   42 * ms,
	}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %v, want %v", l, got[l], want[l])
		}
	}
	if _, err := parseTraces("File: x\nType: cpu\n"); err == nil {
		t.Error("a profile without samples parsed")
	}
}

// TestProfileSelfTimesOnRealProfile profiles an engine-only loop through
// the toolchain's pprof and expects the sim layer to dominate.
func TestProfileSelfTimesOnRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	engineNsPerEvent(engineShape{pending: 256, delays: []sim.Time{300, 1000, 2000}})
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	self, err := profileSelfTimes([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total == 0 || self["sim"] < total/2 {
		t.Fatalf("sim self time %v of %v total: %v", self["sim"], total, self)
	}
}

func fctFixture() *conga.FCTResult {
	return &conga.FCTResult{
		Generated: 2, Completed: 2, NormFCT: 1.5, Drops: 3, Retransmits: 4, Timeouts: 1,
		SimTime: time.Second, Events: 1000, Wall: time.Millisecond,
		FlowFCTs: []conga.FlowFCT{{ID: 1, Size: 100, FCT: time.Microsecond}, {ID: 2, Size: 200, FCT: 2 * time.Microsecond}},
	}
}

// fixtureInput is the input fctFixture ran: two flows of 300 bytes.
var fixtureInput = input{flows: 2, bytes: 300}

func TestDigestCatchesPerturbedOutcome(t *testing.T) {
	base := fctOutcome(fctFixture(), fixtureInput)
	if base.err != nil {
		t.Fatal(base.err)
	}
	perturb := map[string]func(r *conga.FCTResult){
		"normFCT last bit": func(r *conga.FCTResult) { r.NormFCT = math.Nextafter(r.NormFCT, 2) },
		"one flow's FCT":   func(r *conga.FCTResult) { r.FlowFCTs[1].FCT++ },
		"drops":            func(r *conga.FCTResult) { r.Drops++ },
		"sim time":         func(r *conga.FCTResult) { r.SimTime++ },
	}
	for name, p := range perturb {
		r := fctFixture()
		p(r)
		if fctOutcome(r, fixtureInput).digest == base.digest {
			t.Errorf("%s: perturbed outcome has the reference digest", name)
		}
	}
	r := fctFixture()
	r.Events, r.Wall = 1, time.Hour
	if fctOutcome(r, fixtureInput).digest != base.digest {
		t.Error("Events and Wall changed the digest")
	}

	refs := references{"w": {"5": {fmtDigest(base.digest)}}}
	if err := refs.check("w", 5, 0, base.digest); err != nil {
		t.Error(err)
	}
	r = fctFixture()
	r.FlowFCTs[0].Size++
	if err := refs.check("w", 5, 0, fctOutcome(r, fixtureInput).digest); err == nil {
		t.Error("perturbed outcome passed the reference check")
	}
	if err := refs.check("w", 6, 0, 1); err != nil {
		t.Errorf("seed without a reference: %v", err)
	}
}

func TestOutcomeInvariants(t *testing.T) {
	r := fctFixture()
	r.Completed = 1
	if fctOutcome(r, fixtureInput).err == nil {
		t.Error("incomplete FCT run passed")
	}
	r = fctFixture()
	r.NormFCT = 0.99
	if fctOutcome(r, fixtureInput).err == nil {
		t.Error("normalized FCT below 1 passed")
	}
	if fctOutcome(fctFixture(), input{flows: 3, bytes: 300}).err == nil {
		t.Error("a run with fewer flows than its input passed")
	}
	if fctOutcome(fctFixture(), input{flows: 2, bytes: 301}).err == nil {
		t.Error("a run whose flows do not carry the input's bytes passed")
	}
	in := &conga.IncastResult{Fanout: 4, GoodputFraction: 0.5, CompletedRounds: 2}
	if o := incastOutcome(in, 2); o.err != nil || o.flows != 8 {
		t.Errorf("healthy incast: err %v, flows %d", o.err, o.flows)
	}
	in.GoodputFraction = 1.01
	if incastOutcome(in, 2).err == nil {
		t.Error("goodput above 1 passed")
	}
	in.GoodputFraction = 0.5
	if incastOutcome(in, 3).err == nil {
		t.Error("missing round passed")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks every metric name's alphabet
// and that the program and BENCHMARK.json declare the same metrics and
// workloads.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	compare := func(kind string, code []metricDef, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(declared))
			return
		}
		for i, m := range code {
			if !valid.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: invalid or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, bj.EndToEnd)
	compare("per_layer", perLayerMetrics, bj.PerLayer)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if !valid.MatchString(w.Name) || w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, specs[i].name)
		}
	}
}

func TestBudgetPrefix(t *testing.T) {
	arr := []workload.Arrival{{Size: 40}, {Size: 50}, {Size: 100}, {Size: 5}}
	cases := []struct {
		budget int64
		n      int
	}{
		{30, 1},   // at least one arrival
		{85, 2},   // 90 bytes is closer than 40
		{120, 2},  // 90 is closer than 190
		{150, 3},  // 190 is closer than 90
		{1000, 4}, // every arrival
	}
	for _, c := range cases {
		if n := budgetPrefix(arr, c.budget); n != c.n {
			t.Errorf("budget %d: %d arrivals, want %d", c.budget, n, c.n)
		}
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	sp, err := findSpec("testbed-enterprise-conga")
	if err != nil {
		t.Fatal(err)
	}
	target := float64(sp.budget) / sp.fct.Workload.Dist().Mean()
	for i := 0; i < 3; i++ {
		a, errA := mustInputs(t, sp, 9).get(i)
		b, errB := mustInputs(t, sp, 9).get(i)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("input %d: %+v (%v) vs %+v (%v)", i, a, errA, b, errB)
		}
		if math.Abs(float64(a.flows)/target-1) > loadTolerance {
			t.Errorf("input %d: %d flows, target %.0f", i, a.flows, target)
		}
	}
}

func mustInputs(t *testing.T, sp *spec, seed uint64) *inputs {
	t.Helper()
	in, err := newInputs(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestProbeRunsTheSameSimulation checks, on small inputs, that the
// pending-event probe rebuilds the real run of the same input, so the
// counts it measures are that run's.
func TestProbeRunsTheSameSimulation(t *testing.T) {
	for _, sp := range specs {
		small := *sp
		if small.fct != nil {
			small.budget = 32 << 20
		} else {
			ic := *sp.incast
			ic.Rounds = 1
			small.incast = &ic
		}
		x, err := mustInputs(t, &small, 4).get(0)
		if err != nil {
			t.Fatal(err)
		}
		samples, _, err := checkProbe(&small, x)
		if err != nil {
			t.Error(err)
		} else if len(samples) == 0 {
			t.Errorf("%s: no samples", sp.name)
		}
	}
}
