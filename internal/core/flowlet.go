package core

import "conga/internal/sim"

// FlowletTable detects and tracks flowlets (§3.4). Each entry holds a port
// number, a valid bit and an age bit; packets index the table by a hash of
// their 5-tuple. A periodic sweep (every Tfl) expires entries whose age bit
// is still set, which detects inactivity gaps between Tfl and 2·Tfl with
// just one bit of state — the trick that lets the ASIC keep 64K entries.
//
// Hash collisions map distinct flows to the same entry. As the paper's
// Remark 1 observes, this only costs a load-balancing opportunity (the
// colliding flow rides the cached port), never correctness, so the table
// makes no attempt to resolve them.
//
// In GapModeTimestamp the table instead records a last-packet timestamp per
// entry and expires lazily on lookup; see GapMode for why both exist.
type FlowletTable struct {
	port  []int16
	valid []bool
	age   []bool
	last  []sim.Time // GapModeTimestamp only
	// GapModeAgeBit keeps an index list of entries that may need sweeping,
	// so Sweep walks the handful of live flowlets instead of all 64K slots.
	// Invariant: valid[i] ⇒ listed[i]; listed[i] is cleared only when the
	// sweep drops i from the list.
	active []int32
	listed []bool
	mode   GapMode
	tfl    sim.Time
	mask   uint64 // len(port)-1 when the size is a power of two, else 0
	// Expired counts entries invalidated by gap detection; Collisions is
	// not observable (hash collisions are indistinguishable from flowlet
	// reuse by design), but Installs and Hits support the concurrency
	// analysis in §2.6.1. Evicts counts installs that overwrote a
	// still-valid entry (only possible via direct Install without a prior
	// miss — the strategy path never does it, so nonzero Evicts flags an
	// unexpected reuse pattern).
	Installs, Hits, Expired, Evicts uint64
	live                            int // valid-entry count, maintained O(1)
}

// NewFlowletTable returns a table with p.FlowletTableSize entries using
// p.GapMode for gap detection.
func NewFlowletTable(p Params) *FlowletTable {
	n := p.FlowletTableSize
	// Fill through a local slice: indexing t.port would reload the slice
	// header and bounds-check every store of this 64K-entry loop, which is
	// about half the cost of building a testbed fabric.
	port := make([]int16, n)
	for i := range port {
		port[i] = -1
	}
	t := &FlowletTable{
		port:  port,
		valid: make([]bool, n),
		mode:  p.GapMode,
		tfl:   p.Tfl,
	}
	if n&(n-1) == 0 {
		t.mask = uint64(n - 1)
	}
	if p.GapMode == GapModeAgeBit {
		t.age = make([]bool, n)
		t.listed = make([]bool, n)
	} else {
		t.last = make([]sim.Time, n)
	}
	return t
}

// Len returns the number of entries.
func (t *FlowletTable) Len() int { return len(t.port) }

func (t *FlowletTable) index(hash uint64) int {
	if t.mask != 0 {
		return int(hash & t.mask)
	}
	return int(hash % uint64(len(t.port)))
}

// Lookup processes a packet of the flow identified by hash. If the flowlet
// is active it returns (port, true) and refreshes the entry's age state.
// Otherwise it returns (lastPort, false): the packet starts a new flowlet,
// the caller must make a load-balancing decision and Install it. lastPort
// is the port the previous flowlet in this entry used (−1 if none); §3.5
// uses it as the tie-break preference so a flow only moves when a strictly
// better uplink exists.
func (t *FlowletTable) Lookup(hash uint64, now sim.Time) (port int, active bool) {
	i := t.index(hash)
	if t.mode == GapModeTimestamp && t.valid[i] && now-t.last[i] > t.tfl {
		t.valid[i] = false
		t.Expired++
		t.live--
	}
	if t.valid[i] {
		t.Hits++
		if t.mode == GapModeAgeBit {
			t.age[i] = false
		} else {
			t.last[i] = now
		}
		return int(t.port[i]), true
	}
	return int(t.port[i]), false
}

// Install caches the decision for a new flowlet: sets the port, the valid
// bit, and clears the age bit.
func (t *FlowletTable) Install(hash uint64, port int, now sim.Time) {
	i := t.index(hash)
	t.port[i] = int16(port)
	if t.valid[i] {
		t.Evicts++
	} else {
		t.valid[i] = true
		t.live++
	}
	t.Installs++
	if t.mode == GapModeAgeBit {
		t.age[i] = false
		if !t.listed[i] {
			t.listed[i] = true
			t.active = append(t.active, int32(i))
		}
	} else {
		t.last[i] = now
	}
}

// Sweep implements the periodic age-bit check: entries whose age bit is
// still set have seen no packet for at least Tfl and are invalidated;
// surviving entries have their age bit set for the next round. The owning
// switch calls it every Tfl. In GapModeTimestamp it is a no-op.
func (t *FlowletTable) Sweep() {
	if t.mode != GapModeAgeBit {
		return
	}
	// Only listed entries can be valid, so walking the active list visits
	// every live flowlet; expired entries are compacted out in place.
	kept := t.active[:0]
	for _, i := range t.active {
		if !t.valid[i] {
			t.listed[i] = false
			continue
		}
		if t.age[i] {
			t.valid[i] = false
			t.listed[i] = false
			t.Expired++
			t.live--
		} else {
			t.age[i] = true
			kept = append(kept, i)
		}
	}
	t.active = kept
}

// Live returns the number of currently valid entries in O(1); the counter
// is maintained by Install/Lookup/Sweep. In GapModeTimestamp it can
// overcount entries whose gap has passed but which haven't been looked up
// yet (expiry is lazy) — the same caveat the real table has.
func (t *FlowletTable) Live() int { return t.live }

// Active returns the number of currently valid entries; §2.6.1's
// measurement analysis argues this stays small (hundreds) even on heavily
// loaded leaves.
func (t *FlowletTable) Active() int {
	n := 0
	for _, v := range t.valid {
		if v {
			n++
		}
	}
	return n
}

// FlowHash hashes a flow 5-tuple-like identity into the table index space.
// It is FNV-1a over the packed words followed by a murmur-style finalizer.
// The finalizer matters: raw FNV-1a's low bit is the parity of the input
// bytes, so structured tuples (e.g. src port derived from flow ID) collapse
// onto one ECMP bucket without it.
func FlowHash(src, dst, srcPort, dstPort, proto uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range [5]uint64{src, dst, srcPort, dstPort, proto} {
		for i := 0; i < 8; i++ {
			h ^= w >> (8 * i) & 0xff
			h *= prime
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
