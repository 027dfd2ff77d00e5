package fabric

import (
	"testing"

	"conga/internal/sim"
)

// failRunStats is everything observable about a fail/restore scenario run:
// delivery counts at the sink plus transmit/drop totals over every link in
// the fabric. Fused and unfused runs must agree on all of it.
type failRunStats struct {
	packets  int
	bytes    int64
	tx       uint64
	txBytes  uint64
	drops    uint64
	executed uint64
}

// runFailScenario floods one flow across the fabric, fails leaf 0's uplink
// `up` at failAt, restores it at restoreAt, and runs to 400 µs.
func runFailScenario(t *testing.T, disableFusion bool, up int, failAt, restoreAt sim.Time) failRunStats {
	t.Helper()
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.DisableFusion = disableFusion
	n, err := NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &testSink{}
	dst := n.Hosts[4] // first host on the other leaf
	dst.Bind(7777, sink)
	// Slightly below line rate: links are mostly idle, so the fused run
	// really has claims outstanding when the failure lands.
	flood(eng, n, 1, n.Hosts[0], dst, 7777, 1000, 8e8, 0, 300*sim.Microsecond)

	link := n.Leaves[0].uplinks[up]
	eng.At(failAt, func(sim.Time) { link.SetUp(false) })
	if restoreAt > 0 {
		eng.At(restoreAt, func(sim.Time) { link.SetUp(true) })
	}
	eng.Run(400 * sim.Microsecond)

	st := failRunStats{packets: sink.packets, bytes: sink.bytes, executed: eng.Executed()}
	all := append([]*Link{}, n.fabricLinks...)
	for _, h := range n.Hosts {
		all = append(all, h.out)
	}
	for _, l := range all {
		st.tx += l.TxPackets
		st.txBytes += l.TxBytes
		st.drops += l.Drops
	}
	return st
}

// TestFusionSetUpMidClaimMatchesSlowPath sweeps a link failure (and a later
// restore) across a fine time grid so it lands in every phase of the fused
// transmit lifecycle: before a claim, mid-serialization (the claim-kill
// path: the fused packet is hunted down in the inflight ring and dropped at
// failure time, exactly when the slow path would kill its txPkt), during
// propagation (committed to the wire; must deliver), and while queued. For
// every offset the fused run must match the unfused run packet for packet
// and drop for drop — and must have executed fewer events overall, or the
// sweep never exercised the fast path.
func TestFusionSetUpMidClaimMatchesSlowPath(t *testing.T) {
	for up := 0; up < 2; up++ { // the flow hashes onto one of the two uplinks
		fusedFaster := false
		for off := sim.Time(0); off <= 30*sim.Microsecond; off += 500 * sim.Nanosecond {
			failAt := 20*sim.Microsecond + off
			restoreAt := 120 * sim.Microsecond
			fused := runFailScenario(t, false, up, failAt, restoreAt)
			slow := runFailScenario(t, true, up, failAt, restoreAt)
			f, s := fused, slow
			f.executed, s.executed = 0, 0
			if f != s {
				t.Fatalf("uplink %d failAt %v: fused %+v != unfused %+v", up, failAt, fused, slow)
			}
			if fused.executed < slow.executed {
				fusedFaster = true
			}
		}
		if !fusedFaster {
			t.Fatalf("uplink %d: no sweep point had the fused run execute fewer events", up)
		}
	}
}

// TestInFlightSurvivesLinkFailure pins SetUp(false)'s semantics on both
// link paths: failing a link drops its queue and any packet still
// serializing, but a packet that finished serialization is on the wire and
// must neither be dropped nor lose its scheduled delivery.
func TestInFlightSurvivesLinkFailure(t *testing.T) {
	for _, disableFusion := range []bool{false, true} {
		eng := sim.New()
		cfg := smallTestConfig(SchemeCONGA)
		cfg.FabricRateBps = 40e9
		cfg.DisableFusion = disableFusion
		n, err := NewNetwork(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := n.Leaves[0].uplinks[0]
		p := n.Pool().Get()
		p.Payload = 1000
		eng.At(0, func(now sim.Time) { l.Send(p, now) })
		eng.Run(500 * sim.Nanosecond) // serialization (~0.2 µs) done, propagation (1 µs) not
		arrival, ok := eng.NextAt()
		if !ok || arrival <= eng.Now() || arrival > sim.Microsecond+500*sim.Nanosecond {
			t.Fatalf("fusion off=%v: next event %v (ok=%v), want the in-flight arrival", disableFusion, arrival, ok)
		}

		l.SetUp(false)
		if l.Drops != 0 || l.TxPackets != 1 {
			t.Fatalf("fusion off=%v: failure touched the in-flight packet: drops %d, tx %d", disableFusion, l.Drops, l.TxPackets)
		}
		if len(l.inflight) <= l.infHead || l.inflight[len(l.inflight)-1] != p {
			t.Fatalf("fusion off=%v: in-flight packet tombstoned", disableFusion)
		}
		if next, ok := eng.NextAt(); !ok || next != arrival {
			t.Fatalf("fusion off=%v: delivery now at %v (ok=%v), want %v", disableFusion, next, ok, arrival)
		}
	}
}
