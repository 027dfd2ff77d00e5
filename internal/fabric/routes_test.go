package fabric

import (
	"testing"
	"unsafe"

	"conga/internal/sim"
)

// refHashOverList is the per-member walk the route masks replaced: count the
// usable members, take hash mod the count, and return the k-th usable one.
func refHashOverList(usable []bool, hash uint64) int {
	n := 0
	for _, ok := range usable {
		if ok {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := int(hash % uint64(n))
	for i, ok := range usable {
		if !ok {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

func TestHashOverBitsMatchesListWalk(t *testing.T) {
	rng := sim.NewRand(14)
	hashes := []uint64{0, 1, ^uint64(0), 1 << 63}
	for h := uint64(2); h < 40; h++ {
		hashes = append(hashes, h)
	}
	for i := 0; i < 24; i++ {
		hashes = append(hashes, rng.Uint64())
	}
	usable := make([]bool, 16)
	for m := 0; m < 1<<16; m++ {
		mask := uint16(m)
		for i := range usable {
			usable[i] = mask&(1<<i) != 0
		}
		for _, h := range hashes {
			if got, want := hashOverBits(mask, h), refHashOverList(usable, h); got != want {
				t.Fatalf("hashOverBits(%016b, %#x) = %d, list walk picks %d", mask, h, got, want)
			}
		}
	}
}

// refLeafUsable is the per-packet reachability computation the leaf route
// masks replaced: an uplink is usable toward dstLeaf if it is up and its
// spine keeps at least one live downlink to dstLeaf.
func refLeafUsable(n *Network, ls *LeafSwitch, dstLeaf int) uint16 {
	var m uint16
	for i, l := range ls.uplinks {
		if !l.Up() {
			continue
		}
		for _, d := range n.Spines[ls.uplinkSpine[i]].Downlinks(dstLeaf) {
			if d.Up() {
				m |= 1 << i
				break
			}
		}
	}
	return m
}

func refSpineLive(ss *SpineSwitch, leaf int) uint16 {
	var m uint16
	for k, l := range ss.Downlinks(leaf) {
		if l.Up() {
			m |= 1 << k
		}
	}
	return m
}

// TestRouteMasksTrackLinkState drives a seeded random sequence of link
// failures, restorations and single-direction SetUp calls through a
// 4-leaf × 4-spine × 2-link fabric and checks, after every step, that each
// switch's mask equals the per-packet reachability walk, and that the
// tables exist exactly while some fabric link is down.
func TestRouteMasksTrackLinkState(t *testing.T) {
	cfg := smallTestConfig(SchemeECMP)
	cfg.NumLeaves, cfg.NumSpines, cfg.LinksPerSpine = 4, 4, 2
	n := MustNetwork(sim.New(), cfg)
	rng := sim.NewRand(7)

	check := func(step int, what string) {
		t.Helper()
		allUp := true
		for _, l := range n.FabricLinks() {
			allUp = allUp && l.Up()
		}
		for _, ls := range n.Leaves {
			if got := ls.routes != nil; got == allUp {
				t.Fatalf("step %d (%s): leaf %d has tables=%v with all links up=%v", step, what, ls.ID, got, allUp)
			}
			for dst := range n.Leaves {
				if got, want := ls.PathMask(dst), refLeafUsable(n, ls, dst); got != want {
					t.Fatalf("step %d (%s): leaf %d → %d mask %08b, walk gives %08b", step, what, ls.ID, dst, got, want)
				}
			}
		}
		for _, ss := range n.Spines {
			if got := ss.routes != nil; got == allUp {
				t.Fatalf("step %d (%s): spine %d has tables=%v with all links up=%v", step, what, ss.ID, got, allUp)
			}
			for leaf := range n.Leaves {
				if got, want := ss.liveMask(leaf), refSpineLive(ss, leaf); got != want {
					t.Fatalf("step %d (%s): spine %d → leaf %d mask %02b, walk gives %02b", step, what, ss.ID, leaf, got, want)
				}
			}
		}
	}

	check(0, "fresh")
	for step := 1; step <= 300; step++ {
		leaf, spine, k := rng.Intn(4), rng.Intn(4), rng.Intn(2)
		var what string
		switch rng.Intn(4) {
		case 0:
			what = "FailLink"
			n.FailLink(leaf, spine, k)
		case 1:
			what = "RestoreLink"
			n.RestoreLink(leaf, spine, k)
		case 2:
			what = "uplink SetUp"
			n.Leaves[leaf].Uplinks()[spine*2+k].SetUp(rng.Intn(2) == 0)
		default:
			what = "spine downlink SetUp"
			n.Spines[spine].Downlinks(leaf)[k].SetUp(rng.Intn(2) == 0)
		}
		check(step, what)
	}
	// Back to all-up: the tables must drop.
	for leaf := 0; leaf < 4; leaf++ {
		for spine := 0; spine < 4; spine++ {
			for k := 0; k < 2; k++ {
				n.RestoreLink(leaf, spine, k)
			}
		}
	}
	check(301, "all restored")
}

func TestDownlinkOnlyForOwnHosts(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	for _, ls := range n.Leaves {
		for _, h := range n.Hosts {
			dl := ls.Downlink(h.ID)
			if own := h.Leaf == ls.ID; own != (dl != nil) {
				t.Fatalf("leaf %d Downlink(host %d on leaf %d) = %v", ls.ID, h.ID, h.Leaf, dl)
			}
			if dl != nil && dl.dst != node(h) {
				t.Fatalf("leaf %d Downlink(%d) leads to the wrong host", ls.ID, h.ID)
			}
		}
		for _, id := range []int{-1, -5, len(n.Hosts), len(n.Hosts) + 100} {
			if dl := ls.Downlink(id); dl != nil {
				t.Fatalf("leaf %d Downlink(%d) = %v, want nil", ls.ID, id, dl)
			}
		}
	}
}

// TestPacketHotFieldsFitOneCacheLine guards the Packet layout: every hop
// reads these fields, and keeping them in the first 64 bytes means a hop
// touches one cache line instead of four.
func TestPacketHotFieldsFitOneCacheLine(t *testing.T) {
	var p Packet
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"Payload", unsafe.Offsetof(p.Payload), unsafe.Sizeof(p.Payload)},
		{"DstHost", unsafe.Offsetof(p.DstHost), unsafe.Sizeof(p.DstHost)},
		{"DstPort", unsafe.Offsetof(p.DstPort), unsafe.Sizeof(p.DstPort)},
		{"SrcLeaf", unsafe.Offsetof(p.SrcLeaf), unsafe.Sizeof(p.SrcLeaf)},
		{"DstLeaf", unsafe.Offsetof(p.DstLeaf), unsafe.Sizeof(p.DstLeaf)},
		{"lbHash", unsafe.Offsetof(p.lbHash), unsafe.Sizeof(p.lbHash)},
		{"Hdr", unsafe.Offsetof(p.Hdr), unsafe.Sizeof(p.Hdr)},
		{"Ctrl", unsafe.Offsetof(p.Ctrl), unsafe.Sizeof(p.Ctrl)},
		{"pooled", unsafe.Offsetof(p.pooled), unsafe.Sizeof(p.pooled)},
		{"IsAck", unsafe.Offsetof(p.IsAck), unsafe.Sizeof(p.IsAck)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Packet.%s ends at byte %d: the per-hop fields must stay in the first 64 bytes "+
				"so each hop reads one cache line; put new fields after the per-hop group", f.name, end)
		}
	}
	if s := unsafe.Sizeof(p); s > 176 {
		t.Errorf("sizeof(Packet) = %d > 176: a new field or a padding hole grew the struct; "+
			"group small fields together and keep the per-hop group first", s)
	}
}
