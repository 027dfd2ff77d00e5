package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"conga"
)

// outcome is what one run's simulated result is checked against: a
// digest of the outputs that must not change, the completed-flow count
// flows_per_s is built from, and the first invariant it violates.
//
// The digest leaves out Events (event-count optimisations are legitimate)
// and Wall (it measures the host, not the simulation).
type outcome struct {
	digest uint64
	flows  int
	err    error
}

type digester struct{ h hash.Hash64 }

func (d digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

// fctOutcome digests Generated, Completed, NormFCT bits, Drops,
// Retransmits, Timeouts, SimTime and every collected (ID, Size, FCT). It
// also checks that the run carried exactly input x's arrival prefix: the
// benchmark sizes that prefix with its own copy of the harness's
// generator configuration, and a copy that drifted would unbound a run's
// work without changing any other outcome.
func fctOutcome(r *conga.FCTResult, x input) outcome {
	h := fnv.New64a()
	d := digester{h}
	d.u64(uint64(r.Generated))
	d.u64(uint64(r.Completed))
	d.u64(math.Float64bits(r.NormFCT))
	d.u64(r.Drops)
	d.u64(r.Retransmits)
	d.u64(r.Timeouts)
	d.u64(uint64(r.SimTime))
	var bytes int64
	for _, f := range r.FlowFCTs {
		d.u64(f.ID)
		d.u64(uint64(f.Size))
		d.u64(uint64(f.FCT))
		bytes += f.Size
	}
	o := outcome{digest: h.Sum64(), flows: r.Completed}
	switch {
	case r.Generated == 0:
		o.err = fmt.Errorf("no flows generated")
	case r.Generated != x.flows:
		o.err = fmt.Errorf("%d flows generated, the input has %d", r.Generated, x.flows)
	case r.Completed != r.Generated:
		o.err = fmt.Errorf("%d of %d flows completed", r.Completed, r.Generated)
	case len(r.FlowFCTs) != r.Completed:
		o.err = fmt.Errorf("%d flows collected, %d completed", len(r.FlowFCTs), r.Completed)
	case bytes != x.bytes:
		o.err = fmt.Errorf("flows carried %d bytes, the input has %d", bytes, x.bytes)
	case !(r.NormFCT >= 1):
		o.err = fmt.Errorf("normalized FCT %v below the idle-network optimum", r.NormFCT)
	}
	return o
}

// incastOutcome digests GoodputFraction bits, CompletedRounds, Drops,
// Timeouts and TotalTime. Each server response of a completed round
// counts as one flow.
func incastOutcome(r *conga.IncastResult, rounds int) outcome {
	h := fnv.New64a()
	d := digester{h}
	d.u64(math.Float64bits(r.GoodputFraction))
	d.u64(uint64(r.CompletedRounds))
	d.u64(r.Drops)
	d.u64(r.Timeouts)
	d.u64(uint64(r.TotalTime))
	o := outcome{digest: h.Sum64(), flows: r.CompletedRounds * r.Fanout}
	switch {
	case r.CompletedRounds != rounds:
		o.err = fmt.Errorf("%d of %d rounds completed", r.CompletedRounds, rounds)
	case !(r.GoodputFraction > 0 && r.GoodputFraction <= 1):
		o.err = fmt.Errorf("goodput fraction %v outside (0, 1]", r.GoodputFraction)
	}
	return o
}

// references holds recorded digests: workload → benchmark seed → digest
// of run index i (hex). Runs beyond a list, and seeds without one, are
// checked for determinism and invariants instead.
type references map[string]map[string][]string

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// check compares run index i's digest with the recorded one, if any.
func (r references) check(workload string, seed uint64, i int, digest uint64) error {
	list := r[workload][strconv.FormatUint(seed, 10)]
	if i >= len(list) {
		return nil
	}
	if got := fmtDigest(digest); got != list[i] {
		return fmt.Errorf("run %d digest %s, reference %s", i, got, list[i])
	}
	return nil
}

func fmtDigest(d uint64) string { return fmt.Sprintf("%016x", d) }
