package fabric

import (
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
)

func TestPathUsableWithdrawsSpineForUnreachableLeaf(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	// Kill spine 1's only link to leaf 1: leaf 0 must stop using spine 1
	// for leaf-1 traffic, while leaf-0-bound paths are untouched.
	n.FailLink(1, 1, 0)
	usable := n.Leaves[0].PathMask(1)
	if usable&(1<<1) != 0 {
		t.Fatal("leaf 0 still considers spine 1 usable toward leaf 1")
	}
	if usable&(1<<0) == 0 {
		t.Fatal("healthy path marked unusable")
	}
}

func TestPathUsableRequiresLocalUplink(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	n.FailLink(0, 0, 0) // leaf 0's own uplink to spine 0
	if usable := n.Leaves[0].PathMask(1); usable != 0b10 {
		t.Fatalf("usable = %02b, want 10", usable)
	}
}

func TestPathUsableLAGSurvivesPartialFailure(t *testing.T) {
	cfg := smallTestConfig(SchemeECMP)
	cfg.LinksPerSpine = 2
	n := MustNetwork(sim.New(), cfg)
	n.FailLink(1, 1, 0) // one of two members on the spine1→leaf1 pair
	usable := n.Leaves[0].PathMask(1)
	for i := range n.Leaves[0].Uplinks() {
		if usable&(1<<i) == 0 {
			t.Fatalf("uplink %d withdrawn though spine 1 still reaches leaf 1: %04b", i, usable)
		}
	}
}

// TestCEMarkingTakesPathMaximum drives packets across two DRE-loaded links
// and checks the CE field ends at the maximum.
func TestCEMarkingTakesPathMaximum(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.NumSpines = 1
	n := MustNetwork(eng, cfg)
	// Preload the spine downlink's DRE so it reports high congestion.
	down := n.Spines[0].Downlinks(1)[0]
	scale := down.Rate() / 8 * core.DefaultParams().Tau().Seconds()
	down.DRE().Add(int(scale)) // utilization ≈ 1 → metric 7

	var seenCE uint8
	probe := &congaProbe{onArrival: func(p *Packet) { seenCE = p.Hdr.CE }}
	orig := n.Leaves[1].strategy
	n.Leaves[1].strategy = &tapStrategy{Strategy: orig, probe: probe}

	sink := &testSink{}
	n.Host(4).Bind(800, sink)
	p := &Packet{FlowID: 3, DstHost: 4, DstPort: 800, Payload: 1000}
	eng.At(0, func(now sim.Time) { n.Host(0).Send(p, now) })
	eng.Run(sim.MaxTime)

	if sink.packets != 1 {
		t.Fatal("probe packet not delivered")
	}
	if seenCE != 7 {
		t.Fatalf("CE at destination leaf = %d, want 7 (max over path)", seenCE)
	}
}

type congaProbe struct {
	onArrival func(p *Packet)
}

type tapStrategy struct {
	Strategy
	probe *congaProbe
}

func (s *tapStrategy) OnFabricArrival(p *Packet, srcLeaf int, now sim.Time) {
	s.probe.onArrival(p)
	s.Strategy.OnFabricArrival(p, srcLeaf, now)
}

// TestCongaFlowStickyWithinFlow: with the 13 ms flowlet timeout, every
// packet of a flow rides the same uplink even across millisecond gaps.
func TestCongaFlowStickyWithinFlow(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGAFlow)
	cfg.Params = core.CongaFlowParams()
	cfg.Params.FlowletTableSize = 1024
	n := MustNetwork(eng, cfg)
	ls := n.Leaves[0]
	p := &Packet{FlowID: 9, SrcHost: 0, DstHost: 4, SrcPort: 1, DstPort: 2}
	first := ls.Strategy().SelectUplink(p, 1, 0)
	for _, at := range []sim.Time{sim.Millisecond, 5 * sim.Millisecond, 12 * sim.Millisecond} {
		eng.Run(at)
		if got := ls.Strategy().SelectUplink(p, 1, at); got != first {
			t.Fatalf("CONGA-Flow moved the flow at %v: %d → %d", at, first, got)
		}
	}
}

// TestCongaMovesOnFlowletGap: with the default 500µs timeout and a
// congested cached path, a gap lets the flow move.
func TestCongaMovesOnFlowletGap(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	n := MustNetwork(eng, cfg)
	ls := n.Leaves[0]
	strat := ls.Strategy().(*congaStrategy)
	p := &Packet{FlowID: 9, SrcHost: 0, DstHost: 4, SrcPort: 1, DstPort: 2}
	first := strat.SelectUplink(p, 1, 0)

	// Make the cached uplink look congested via remote feedback.
	strat.Core().ToLeaf.Update(1, first, 7, 0)

	// Within the flowlet: must not move despite congestion.
	if got := strat.SelectUplink(p, 1, 100*sim.Microsecond); got != first {
		t.Fatal("flow moved mid-flowlet")
	}
	// After a >2·Tfl gap (sweeps run on the network ticker): must move.
	eng.Run(2 * sim.Millisecond)
	if got := strat.SelectUplink(p, 1, eng.Now()); got == first {
		t.Fatal("flow did not move to the uncongested path after a flowlet gap")
	}
}

func TestSprayCountersSkipDownPaths(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeSpray))
	n.FailLink(0, 0, 0)
	ls := n.Leaves[0]
	p := &Packet{FlowID: 1, DstHost: 4}
	for i := 0; i < 10; i++ {
		if got := ls.Strategy().SelectUplink(p, 1, 0); got != 1 {
			t.Fatalf("spray used failed uplink %d", got)
		}
	}
}

func TestLinkSetUpDropsQueueAndResetsDRE(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.NumSpines = 1
	n := MustNetwork(eng, cfg)
	up := n.Leaves[0].Uplinks()[0]
	// Saturate so the queue holds packets, then fail.
	sink := &testSink{}
	n.Host(4).Bind(900, sink)
	flood(eng, n, 1, n.Host(0), n.Host(4), 900, 1400, 1e9, 0, sim.Millisecond)
	eng.Run(500 * sim.Microsecond)
	if up.QueuedBytes() == 0 {
		t.Skip("no queue built; cannot exercise drop-on-fail")
	}
	up.SetUp(false)
	if up.QueuedBytes() != 0 {
		t.Fatal("queue survived link failure")
	}
	if up.DRE().X() != 0 {
		t.Fatal("DRE survived link failure")
	}
}

func TestNetworkTotalDropsCountsEverything(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	cfg.EdgeBufBytes = 5000
	cfg.FabricRateBps = 4e9 // keep the bottleneck at the access downlink
	n := MustNetwork(eng, cfg)
	sink := &testSink{}
	n.Host(4).Bind(901, sink)
	flood(eng, n, 1, n.Host(0), n.Host(4), 901, 1400, 1e9, 0, 2*sim.Millisecond)
	flood(eng, n, 2, n.Host(1), n.Host(4), 901, 1400, 1e9, 0, 2*sim.Millisecond)
	eng.Run(3 * sim.Millisecond)
	if n.TotalDrops() == 0 {
		t.Fatal("oversubscription dropped nothing")
	}
}
