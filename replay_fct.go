package conga

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/replay"
	"conga/internal/sim"
	"conga/internal/workload"
)

// This file glues internal/replay to the FCT harness: fingerprinting the
// topology, building trace headers, and re-injecting a recorded arrival
// sequence with the exact event structure of the live generator so that
// same-scheme replay is bit-identical (same events/op, same per-flow FCTs).

// fingerprintDesc canonically describes the fabric *shape* — the fields
// that make recorded host IDs meaningful. Scheme, transport, link
// failures, per-link rate overrides and buffer sizes are deliberately
// excluded: varying those against a fixed workload is the point of replay.
func (t Topology) fingerprintDesc() string {
	return fmt.Sprintf("leaves=%d spines=%d hosts/leaf=%d links/spine=%d access=%gG fabric=%gG",
		t.Leaves, t.Spines, t.HostsPerLeaf, t.LinksPerSpine, t.AccessGbps, t.FabricGbps)
}

// traceHeader builds the provenance header for a recording run. cfg must
// already have defaults applied.
func (cfg FCTConfig) traceHeader(workloadName string) replay.Header {
	desc := cfg.Topology.fingerprintDesc()
	return replay.Header{
		Harness:    "fct",
		Scheme:     SchemeName(cfg.Scheme),
		Workload:   workloadName,
		Load:       cfg.Load,
		Seed:       cfg.Seed,
		TopoFP:     replay.Fingerprint(desc),
		Topo:       desc,
		DurationNs: int64(cfg.Duration),
	}
}

// checkReplay validates a trace against the (defaulted) config about to
// replay it.
func (cfg FCTConfig) checkReplay() error {
	t := cfg.Replay
	if err := t.Validate(); err != nil {
		return err
	}
	desc := cfg.Topology.fingerprintDesc()
	if err := t.CheckTopology(replay.Fingerprint(desc), desc); err != nil {
		return err
	}
	// The fingerprint proves the shape matches; still bound the host IDs so
	// a forged header cannot crash the harness.
	hosts := cfg.Topology.Leaves * cfg.Topology.HostsPerLeaf
	for i, f := range t.Flows {
		if f.Src >= hosts || f.Dst >= hosts {
			return fmt.Errorf("replay: corrupt trace: arrival %d names host %d→%d beyond the fabric's %d hosts", i, f.Src, f.Dst, hosts)
		}
	}
	return nil
}

// replayInjector re-injects a recorded arrival sequence. It mirrors the
// live generator's event structure exactly — one engine event per arrival
// whose body starts the flow and then schedules the next arrival — so a
// same-scheme replay creates events in the identical order the recording
// run did. (The live generator's RNG is a private stream; not consuming it
// changes nothing else.)
type replayInjector struct {
	eng     *sim.Engine
	net     *fabric.Network
	flows   []replay.Flow
	next    int
	start   workload.Starter
	observe func(replay.Flow) // re-recording during replay (tests use this)
	startFn sim.Event         // bound once; walks flows allocation-free

	// Generated and OfferedBytes mirror workload.Generator's counters.
	Generated    int
	OfferedBytes int64
}

func newReplayInjector(eng *sim.Engine, net *fabric.Network, flows []replay.Flow, start workload.Starter, observe func(replay.Flow)) *replayInjector {
	r := &replayInjector{eng: eng, net: net, flows: flows, start: start, observe: observe}
	r.startFn = r.inject
	return r
}

// Start schedules the first arrival (as Generator.Start schedules the
// first live arrival before the engine runs).
func (r *replayInjector) Start() {
	if len(r.flows) > 0 {
		r.eng.At(r.flows[0].At, r.startFn)
	}
}

func (r *replayInjector) inject(now sim.Time) {
	f := &r.flows[r.next]
	r.next++
	r.Generated++
	r.OfferedBytes += f.Size
	if r.observe != nil {
		r.observe(*f)
	}
	r.start(r.net.Host(f.Src), r.net.Host(f.Dst), f.FlowID, f.Size)
	if r.next < len(r.flows) {
		r.eng.At(r.flows[r.next].At, r.startFn)
	}
}

// traceProvenance is the one-line run ancestry string stamped into
// telemetry sink headers, so flushed data always names the workload that
// drove it. verb is "replay" or "record".
func traceProvenance(verb string, h replay.Header) string {
	return fmt.Sprintf("%s harness=%s scheme=%s workload=%s load=%g seed=%d flows=%d fp=%016x",
		verb, h.Harness, h.Scheme, h.Workload, h.Load, h.Seed, h.Flows, h.TopoFP)
}
