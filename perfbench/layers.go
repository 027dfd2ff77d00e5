package main

import (
	"runtime"
	"time"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Isolated layer loops: each times calls into one layer's public
// functions alone, after an untimed warm-up, and reports the median of
// several repetitions.

const isolatedReps = 7

// medianTimed runs fn once as a warm-up, then isolatedReps times with a GC
// before each, and returns the median duration fn reported.
func medianTimed(fn func() (time.Duration, error)) (time.Duration, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	ds := make([]float64, isolatedReps)
	for i := range ds {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// timeCall times one call for medianTimed.
func timeCall(call func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := call()
		return time.Since(start), err
	}
}

// engineShape describes the event pattern of a workload for the isolated
// engine loop (see spec.engine).
type engineShape struct {
	pending int
	delays  []sim.Time
}

// engineNsPerEvent drives sim.Engine.At/Run alone: shape.pending
// self-rescheduling events, event k re-arming itself after
// delays[k % len(delays)], for a fixed number of executed events.
func engineNsPerEvent(shape engineShape) float64 {
	const events = 2_000_000
	var ns float64
	medianTimed(func() (time.Duration, error) {
		eng := sim.New()
		for k := 0; k < shape.pending; k++ {
			d := shape.delays[k%len(shape.delays)]
			var fn sim.Event
			fn = func(now sim.Time) { eng.At(now+d, fn) }
			eng.At(sim.Time(k), fn)
		}
		// Run in slices of simulated time until the event budget is spent.
		start := time.Now()
		for eng.Executed() < events {
			eng.Run(eng.Now() + 100*sim.Microsecond)
		}
		el := time.Since(start)
		ns = float64(el.Nanoseconds()) / float64(eng.Executed())
		return el, nil
	})
	return ns
}

// selectNs drives core.Leaf.SelectUplink alone with a synthetic stream:
// a working set of flow hashes revisited at random, 100 ns apart in
// simulated time, so flowlets both stick and expire, with local metrics
// drifting between calls.
func selectNs(leaves, uplinks int, seed uint64) float64 {
	const calls = 1_000_000
	const flows = 4096
	rng := sim.NewRand(seed)
	hashes := make([]uint64, calls)
	dsts := make([]int, calls)
	pool := make([]uint64, flows)
	for i := range pool {
		pool[i] = core.FlowHash(rng.Uint64(), rng.Uint64(), 1, 2, 6)
	}
	for i := range hashes {
		hashes[i] = pool[rng.Intn(flows)]
		dsts[i] = 1 + rng.Intn(leaves-1)
	}
	local := make([]uint8, uplinks)
	var ns float64
	medianTimed(func() (time.Duration, error) {
		leaf := core.NewLeaf(0, leaves, uplinks, core.DefaultParams(), sim.NewRand(seed))
		start := time.Now()
		for i, h := range hashes {
			local[i%uplinks] = uint8(i>>10) & 7
			leaf.SelectUplink(h, dsts[i], local, nil, sim.Time(i)*100)
		}
		el := time.Since(start)
		ns = float64(el.Nanoseconds()) / calls
		return el, nil
	})
	return ns
}

// buildSeconds times fabric.NewNetwork for the workload's topology.
func buildSeconds(sp *spec, seed uint64) (float64, error) {
	cfg := fabricConfig(sp.topology(), sp.scheme(), seed, nil)
	d, err := medianTimed(timeCall(func() error {
		_, err := fabric.NewNetwork(sim.New(), cfg)
		return err
	}))
	return d.Seconds(), err
}

// pregenSeconds times workload.Generator.Pregenerate of one input's
// arrivals.
func pregenSeconds(in *inputs, x input) (float64, error) {
	d, err := medianTimed(timeCall(func() error {
		_, err := in.pregenerate(x.seed, x.flows)
		return err
	}))
	return d.Seconds(), err
}

// flushSeconds times Registry.FlushSink into discardSink.
func flushSeconds(reg *telemetry.Registry) (float64, error) {
	d, err := medianTimed(timeCall(func() error { return reg.FlushSink(discardSink{}) }))
	return d.Seconds(), err
}

// discardSink reads everything a file sink would read and keeps nothing,
// so flush_s measures the registry's side of a flush without disk I/O.
type discardSink struct{}

func (discardSink) Counters([]telemetry.CounterRow) error { return nil }
func (discardSink) Series(s *telemetry.Series) error {
	s.Points()
	return nil
}
func (discardSink) Trace(tr *telemetry.PacketTrace) error {
	tr.Events()
	return nil
}
func (discardSink) Decisions(tr *telemetry.DecisionTrace) error {
	tr.Events()
	return nil
}
func (discardSink) Paths([]telemetry.PathRow, []telemetry.PathSummary) error { return nil }
