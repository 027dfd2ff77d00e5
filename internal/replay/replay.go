// Package replay records and replays workload arrival sequences.
//
// The paper's headline results are comparisons — CONGA vs ECMP vs MPTCP on
// the same offered load — but a live Poisson generator draws a fresh random
// arrival sequence per run, so small FCT differences between schemes are
// confounded by workload noise. A replay trace removes that noise: it
// captures the exact flow-arrival sequence of one run — (start, src, dst,
// size, kind) per flow — so the identical offered load can be re-injected
// into any scheme or fabric configuration for an apples-to-apples,
// matched-pairs comparison.
//
// A trace is a Header plus a flat arrival list. The header carries
// provenance (scheme, workload, load, seed, duration of the recording run)
// and a topology fingerprint; replaying refuses a fingerprint mismatch,
// because arrival src/dst host IDs are only meaningful on the fabric shape
// they were drawn for. Scheme, transport, link failures and buffer sizing
// are deliberately outside the fingerprint — varying those against a fixed
// workload is the whole point of replay.
//
// Two on-disk formats share the same model (see format.go): NDJSON for
// greppability and a gzip'd binary for compactness; Read auto-detects.
package replay

import (
	"fmt"

	"conga/internal/sim"
)

// Version is the trace format version this package writes. Readers accept
// only versions they know how to decode.
const Version = 1

// Flow kinds tag where an arrival came from, so mixed traces stay
// interpretable after replay.
const (
	// KindWorkload is an open-loop Poisson workload arrival (FCT and HDFS
	// background generators).
	KindWorkload = "workload"
	// KindIncast is one server's share of a synchronized Incast round.
	KindIncast = "incast"
)

// Flow is one recorded arrival: at time At, host Src starts sending Size
// bytes to host Dst under flow ID FlowID.
type Flow struct {
	At     sim.Time
	Src    int
	Dst    int
	FlowID uint64
	Size   int64
	Kind   string
}

// Header carries a trace's provenance and compatibility data.
type Header struct {
	// Version is the format version the trace was written with.
	Version int
	// Harness names the recording experiment ("fct", "incast", "hdfs").
	Harness string
	// Scheme, Workload, Load and Seed describe the recording run. They are
	// provenance, not constraints: a trace recorded under ECMP replays under
	// CONGA unchanged.
	Scheme   string
	Workload string
	Load     float64
	Seed     uint64
	// TopoFP fingerprints the fabric shape the arrivals were drawn for;
	// Topo is its human-readable form. Replay requires an exact match.
	TopoFP uint64
	Topo   string
	// DurationNs is the recording run's arrival window; replay reuses it so
	// the replayed engine horizon matches the recorded one.
	DurationNs int64
	// Flows and Bytes summarize the arrival list (validated on read).
	Flows int
	Bytes int64
	// SpanNs is the time of the last arrival.
	SpanNs int64
}

// Trace is a complete recorded workload.
type Trace struct {
	Header Header
	Flows  []Flow
}

// Fingerprint hashes a canonical topology description (64-bit FNV-1a).
// Callers build the description; the hash is what headers store and
// replay compares.
func Fingerprint(desc string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(desc); i++ {
		h ^= uint64(desc[i])
		h *= prime64
	}
	return h
}

// CheckTopology returns a loud error when the trace was recorded on a
// different fabric shape than the one about to replay it.
func (t *Trace) CheckTopology(fp uint64, desc string) error {
	if t.Header.TopoFP != fp {
		return fmt.Errorf("replay: trace recorded on topology %q (fp %016x) cannot replay on %q (fp %016x): arrival host IDs are only valid on the recorded fabric shape",
			t.Header.Topo, t.Header.TopoFP, desc, fp)
	}
	return nil
}

// Validate checks internal consistency: header counts against the arrival
// list, monotone arrival times, and known version. Read calls it; harnesses
// replaying an in-memory trace should too.
func (t *Trace) Validate() error {
	if t.Header.Version != Version {
		return fmt.Errorf("replay: unsupported trace version %d (this build reads version %d)", t.Header.Version, Version)
	}
	if t.Header.Flows != len(t.Flows) {
		return fmt.Errorf("replay: corrupt trace: header promises %d flows, file carries %d", t.Header.Flows, len(t.Flows))
	}
	var bytes int64
	var last sim.Time
	for i, f := range t.Flows {
		if f.At < last {
			return fmt.Errorf("replay: corrupt trace: arrival %d at %v precedes arrival %d at %v", i, f.At, i-1, last)
		}
		if f.Size <= 0 {
			return fmt.Errorf("replay: corrupt trace: arrival %d has non-positive size %d", i, f.Size)
		}
		if f.Src < 0 || f.Dst < 0 {
			return fmt.Errorf("replay: corrupt trace: arrival %d has negative host (src %d, dst %d)", i, f.Src, f.Dst)
		}
		last = f.At
		bytes += f.Size
	}
	if t.Header.Bytes != bytes {
		return fmt.Errorf("replay: corrupt trace: header promises %d bytes, arrivals sum to %d", t.Header.Bytes, bytes)
	}
	return nil
}

// Recorder accumulates arrivals during a run. The experiment harness fills
// Header when the run starts and appends one Flow per arrival; Trace seals
// the result.
type Recorder struct {
	Header Header
	flows  []Flow
}

// Add appends one arrival. Harness hooks call it in arrival order.
func (r *Recorder) Add(f Flow) {
	r.flows = append(r.flows, f)
}

// Len returns the number of recorded arrivals.
func (r *Recorder) Len() int { return len(r.flows) }

// Trace seals the recording: the header's summary fields are recomputed
// from the arrival list and the finished trace is returned. The recorder
// may keep recording afterwards; Trace copies nothing (the caller must not
// mutate the returned flows).
func (r *Recorder) Trace() *Trace {
	h := r.Header
	h.Version = Version
	h.Flows = len(r.flows)
	h.Bytes = 0
	h.SpanNs = 0
	for _, f := range r.flows {
		h.Bytes += f.Size
		if int64(f.At) > h.SpanNs {
			h.SpanNs = int64(f.At)
		}
	}
	return &Trace{Header: h, Flows: r.flows}
}
