package fabric

import "conga/internal/sim"

// SpineSwitch forwards fabric packets to their destination leaf using the
// outer (overlay) header only. When several parallel links lead to the same
// leaf (link aggregation), it picks one by hashing the flow, exactly as the
// paper's footnote 3 describes ("the spine switches pick one using standard
// ECMP hashing"). Each spine downlink carries a DRE, and transiting packets
// pick up its congestion metric in their CE field (done in Link).
type SpineSwitch struct {
	ID   int
	pool *PacketPool

	// down[leaf] lists the parallel links toward that leaf.
	down [][]*Link
	// routes[leaf] is the bitmask of live links in down[leaf]; nil while
	// every fabric link is up, when allLinks serves every leaf (see
	// LeafSwitch.routes).
	routes   []uint16
	allLinks uint16

	// NoRouteDrops counts packets with no surviving link to their leaf.
	NoRouteDrops uint64
}

// Downlinks returns the parallel links toward leaf.
func (ss *SpineSwitch) Downlinks(leaf int) []*Link { return ss.down[leaf] }

// liveMask reports, as a bitmask over Downlinks(leaf), which parallel
// links toward leaf are up.
func (ss *SpineSwitch) liveMask(leaf int) uint16 {
	if ss.routes == nil {
		return ss.allLinks
	}
	return ss.routes[leaf]
}

func (ss *SpineSwitch) handle(p *Packet, _ *Link, now sim.Time) {
	idx := hashOverBits(ss.liveMask(p.DstLeaf), flowHash(p))
	if idx < 0 {
		ss.NoRouteDrops++
		ss.pool.Put(p)
		return
	}
	ss.down[p.DstLeaf][idx].Send(p, now)
}
