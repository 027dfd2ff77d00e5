package conga

import (
	"reflect"
	"testing"
	"time"
)

// fusionCells is the equivalence matrix: the paper-artifact configurations
// the fused engine must reproduce bit-for-bit. Fig09 is the steady-state
// FCT sweep, Fig11 adds a failed fabric link (asymmetry plus the SetUp
// drop paths), and Scale64 is the smallest large-fabric sweep cell (many
// leaves, 40G links, pooled flows).
func fusionCells() []struct {
	name string
	cfg  FCTConfig
} {
	fig09 := FCTConfig{
		Topology:  benchTopo(),
		Scheme:    SchemeCONGA,
		Workload:  WorkloadEnterprise,
		Load:      0.6,
		Duration:  10 * time.Millisecond,
		MaxFlows:  150,
		Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
		Seed:      7,
		// Per-flow FCT vectors: a single reordered completion fails the
		// comparison flow by flow, not just in the aggregate stats.
		CollectFlows: true,
	}
	fig11 := fig09
	fig11.Topology.FailedLinks = [][3]int{{1, 1, 1}}
	fig11.Seed = 11

	scale64 := ScaleConfig{
		Leaves:     []int{64},
		AccessGbps: []float64{40},
		MaxFlows:   600, // the sweep cell's shape at test-friendly flow count
	}.Configs()[0]
	scale64.CollectFlows = true
	scale64.Seed = 3

	return []struct {
		name string
		cfg  FCTConfig
	}{
		{"Fig09", fig09},
		{"Fig11", fig11},
		{"Scale64", scale64},
	}
}

// TestFusionEquivalence is the cut-through fast path's correctness
// contract (DESIGN.md §3.9): with fusion on, every observable of a run —
// per-flow FCT vectors, normalized FCT, drops, retransmits, queue CDFs,
// goodput — must be bit-identical to the unfused engine on the same
// seeded configuration. Only the executed-event count may differ, and it
// must actually differ (shrink), or the fast path never engaged and the
// test proves nothing.
func TestFusionEquivalence(t *testing.T) {
	for _, cell := range fusionCells() {
		cfg := cell.cfg
		fused, err := RunFCT(cfg)
		if err != nil {
			t.Fatalf("%s fused: %v", cell.name, err)
		}
		cfg.Topology.DisableFusion = true
		slow, err := RunFCT(cfg)
		if err != nil {
			t.Fatalf("%s unfused: %v", cell.name, err)
		}

		if fused.Events >= slow.Events {
			t.Errorf("%s: fusion executed %d events, unfused %d — fast path never engaged",
				cell.name, fused.Events, slow.Events)
		}
		f, s := *fused, *slow
		f.Events, s.Events = 0, 0
		f.Wall, s.Wall = 0, 0
		if !reflect.DeepEqual(f, s) {
			t.Errorf("%s: fused run diverged from unfused\nfused:   %+v\nunfused: %+v",
				cell.name, f, s)
		}
	}
}

// TestFusionEquivalenceIncast is the Fig13 leg of the matrix: the Incast
// micro-benchmark runs every round to completion, so besides the result
// struct the telemetry counter totals must agree exactly — fused links
// apply tx-side counters at serialization start rather than end, which is
// observable mid-run but must never survive a quiesced run.
func TestFusionEquivalenceIncast(t *testing.T) {
	cfg := IncastConfig{
		Topology:     benchTopo(),
		Scheme:       SchemeCONGA,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       8,
		RequestBytes: 1 << 20,
		Rounds:       2,
		Seed:         5,
		Telemetry:    &TelemetryOptions{Counters: true},
	}
	fused, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology.DisableFusion = true
	slow, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if fused.Events >= slow.Events {
		t.Errorf("fusion executed %d events, unfused %d — fast path never engaged",
			fused.Events, slow.Events)
	}
	freg, sreg := fused.Telemetry, slow.Telemetry
	fused.Telemetry, slow.Telemetry = nil, nil
	fused.Events, slow.Events = 0, 0
	fused.Wall, slow.Wall = 0, 0
	if !reflect.DeepEqual(fused, slow) {
		t.Fatalf("fused incast diverged from unfused\nfused:   %+v\nunfused: %+v", fused, slow)
	}
	if !reflect.DeepEqual(freg.CounterRows(), sreg.CounterRows()) {
		t.Fatalf("telemetry counter totals differ after quiesce\nfused:   %+v\nunfused: %+v",
			freg.CounterRows(), sreg.CounterRows())
	}
	if enq, _, _, _ := freg.LinkTotals(); enq == 0 {
		t.Fatal("counters observed nothing; the comparison proves nothing")
	}
}

// TestFusionAutoDisabledByTrace pins the fallback contract: a packet trace
// (or live tap) observes mid-serialization state, so requesting one forces
// every link onto the slow path. The proof is the executed-event count —
// with tracing on, a fusion-allowed run must cost exactly as many events
// as a DisableFusion run, not just produce the same results.
func TestFusionAutoDisabledByTrace(t *testing.T) {
	cfg := FCTConfig{
		Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:       SchemeCONGA,
		Workload:     WorkloadEnterprise,
		Load:         0.5,
		Duration:     8 * time.Millisecond,
		MaxFlows:     80,
		Seed:         9,
		CollectFlows: true,
		Telemetry:    TelemetryAll(""),
	}
	traced, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology.DisableFusion = true
	slow, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *traced, *slow
	a.Telemetry, b.Telemetry = nil, nil
	a.Wall, b.Wall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traced run differs from explicit DisableFusion\ntraced: %+v\nslow:   %+v", a, b)
	}
	if a.Events != b.Events {
		t.Fatalf("trace did not force the slow path: %d events vs %d", a.Events, b.Events)
	}
}
