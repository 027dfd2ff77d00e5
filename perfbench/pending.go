package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"conga"
	"conga/internal/sim"
)

// runPrint is what a rebuilt run must share with the real run of the same
// input: its executed events, final simulated time, drops and, for FCT
// runs, the normalized FCT and every flow's (ID, Size, FCT) in ID order,
// as FCTResult.FlowFCTs lists them. Events alone would not do: a packet
// makes as many hops on one path as on another.
type runPrint struct {
	Events  uint64
	SimTime time.Duration
	Drops   uint64
	NormFCT float64
	Flows   []conga.FlowFCT
}

// probePending runs input x as spec.rebuild assembles it and samples
// sim.Engine.Pending() at events the run already has: every
// cumulative-ACK advance of every sender, the commonest event of a busy
// fabric, so the samples weigh the run's busy periods as its events do.
// It returns the samples and the rebuilt run's print.
func probePending(sp *spec, x input) ([]int, runPrint, error) {
	var samples []int
	var eng *sim.Engine
	r, err := sp.rebuild(x, func(int64, sim.Time) { samples = append(samples, eng.Pending()) })
	if err != nil {
		return nil, runPrint{}, err
	}
	eng = r.eng
	eng.Run(r.horizon)
	p := runPrint{Events: eng.Executed(), SimTime: time.Duration(eng.Now()), Drops: r.net.TotalDrops(), Flows: r.flows}
	if r.rec != nil {
		p.NormFCT = r.rec.NormOfMeans()
		sort.Slice(p.Flows, func(i, j int) bool { return p.Flows[i].ID < p.Flows[j].ID })
	}
	return samples, p, nil
}

// realPrint runs input x through the public entry point and returns its
// print.
func realPrint(sp *spec, x input) (runPrint, error) {
	if sp.incast != nil {
		r, err := conga.RunIncast(sp.incastConfig(x))
		if err != nil {
			return runPrint{}, err
		}
		return runPrint{Events: r.Events, SimTime: r.TotalTime, Drops: r.Drops}, nil
	}
	r, err := conga.RunFCT(sp.fctConfig(x))
	if err != nil {
		return runPrint{}, err
	}
	return runPrint{Events: r.Events, SimTime: r.SimTime, Drops: r.Drops, NormFCT: r.NormFCT, Flows: r.FlowFCTs}, nil
}

// checkProbe probes input x and fails unless the rebuilt run's print is
// the real run's.
func checkProbe(sp *spec, x input) ([]int, runPrint, error) {
	samples, p, err := probePending(sp, x)
	if err != nil {
		return nil, p, err
	}
	want, err := realPrint(sp, x)
	if err != nil {
		return nil, p, err
	}
	if !reflect.DeepEqual(p, want) {
		return nil, p, fmt.Errorf("%s input seed %d: the probe's run (%d events, %v, %d drops, %d flows) differs from the real one (%d events, %v, %d drops, %d flows)",
			sp.name, x.seed, p.Events, p.SimTime, p.Drops, len(p.Flows), want.Events, want.SimTime, want.Drops, len(want.Flows))
	}
	return samples, p, nil
}

// probeAll prints, for the first input of seeds 1-3 of every workload,
// the median, 90th percentile and peak of the probed pending-event
// counts, after checking that each probed run is the real one. The median
// of a workload's three medians is the pending count of its spec's engine
// shape.
func probeAll() error {
	for _, sp := range specs {
		var medians []float64
		for _, seed := range referenceSeeds {
			in, err := newInputs(sp, seed)
			if err != nil {
				return err
			}
			x, err := in.get(0)
			if err != nil {
				return err
			}
			samples, p, err := checkProbe(sp, x)
			if err != nil {
				return err
			}
			sort.Ints(samples)
			n := len(samples)
			fmt.Printf("%-26s seed %d: %6d samples, pending median %5d p90 %5d max %5d; run matches (%d events)\n",
				sp.name, seed, n, samples[n/2], samples[n*9/10], samples[n-1], p.Events)
			medians = append(medians, float64(samples[n/2]))
		}
		fmt.Printf("%-26s engine shape pending %.0f (in spec: %d)\n", sp.name, median(medians), sp.engine.pending)
	}
	return nil
}
