package conga

import (
	"fmt"
	"sort"
	"time"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/mptcp"
	"conga/internal/replay"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
	"conga/internal/telemetry"
	"conga/internal/workload"
)

// Workload names a flow-size distribution.
type Workload int

// The paper's workloads (Figure 8 and §5.5).
const (
	WorkloadEnterprise Workload = iota
	WorkloadDataMining
	WorkloadWebSearch
)

func (w Workload) String() string {
	switch w {
	case WorkloadEnterprise:
		return "enterprise"
	case WorkloadDataMining:
		return "data-mining"
	case WorkloadWebSearch:
		return "web-search"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// SizeDist is a flow-size distribution; see the workload package for the
// built-ins and the Empirical constructor.
type SizeDist = workload.SizeDist

// Dist returns the distribution for a named workload.
func (w Workload) Dist() SizeDist {
	switch w {
	case WorkloadEnterprise:
		return workload.Enterprise()
	case WorkloadDataMining:
		return workload.DataMining()
	case WorkloadWebSearch:
		return workload.WebSearch()
	default:
		panic(fmt.Sprintf("conga: unknown workload %d", int(w)))
	}
}

// FCTConfig describes a flow-completion-time experiment (§5.2): an
// open-loop Poisson workload at a target load over a chosen topology and
// scheme.
type FCTConfig struct {
	Topology  Topology
	Scheme    Scheme
	Params    *Params // nil → paper defaults (CONGA-Flow gets its 13 ms timeout)
	Workload  Workload
	Custom    SizeDist // overrides Workload when non-nil
	Load      float64  // fraction of per-direction leaf bisection bandwidth
	Transport TransportConfig

	// Duration is the arrival window of simulated time. Flows started
	// inside it are allowed to finish afterwards, up to DrainTimeout.
	Duration     time.Duration
	DrainTimeout time.Duration
	// MaxFlows bounds the experiment (0 = unlimited).
	MaxFlows int

	Seed uint64

	// CollectImbalance samples leaf-0 uplink throughput imbalance over
	// 10 ms windows (Figure 12).
	CollectImbalance bool
	// CollectQueues samples every fabric queue (Figures 11c and 16).
	CollectQueues bool

	// Telemetry, when non-nil, enables the observability subsystem for
	// this run; the populated registry comes back in FCTResult.Telemetry
	// and flushes to Telemetry.Dir (if set) before RunFCT returns.
	// Enabling it never changes simulation outcomes.
	Telemetry *TelemetryOptions

	// SampleCap, when > 0, bounds every statistics buffer (FCT samples,
	// imbalance and queue samplers) to at most SampleCap retained
	// observations via reservoir sampling, so million-flow sweeps run at
	// fixed memory. Means, counts and extrema stay exact; quantiles and
	// CDFs become reservoir estimates. The reservoirs use their own
	// seeded PRNGs, so simulation outcomes are unaffected.
	SampleCap int

	WCMPWeights []float64

	// Record, when true, captures the exact flow-arrival sequence of this
	// run; the sealed trace comes back in FCTResult.Trace, ready for
	// Trace.Write and later replay. Recording observes arrivals as they
	// are drawn and never changes simulation outcomes.
	Record bool
	// Replay, when non-nil, re-injects this recorded arrival sequence
	// instead of drawing a live Poisson workload: Load, Workload, Custom,
	// MaxFlows and the workload seed are ignored, and Duration is taken
	// from the trace header so the run horizon matches the recording.
	// The trace must have been recorded on the same fabric shape
	// (topology fingerprints are compared; mismatches are refused), but
	// scheme, transport, link failures and buffer sizing are free to
	// differ — that is the point. Replaying into the identical
	// scheme/config reproduces the recording run bit-identically.
	Replay *replay.Trace
	// CollectFlows keeps every completed flow's (ID, size, FCT) in
	// FCTResult.FlowFCTs, sorted by flow ID — the raw material for
	// matched-pairs comparison (stats.PairedSample, RunReplayCompare).
	CollectFlows bool
}

func (c FCTConfig) withDefaults() FCTConfig {
	c.Topology = c.Topology.withDefaults()
	if c.Duration == 0 {
		c.Duration = 40 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Transport = c.Transport.withDefaults()
	return c
}

// CDF is a list of (value, cumulative-fraction) points.
type CDF = [][2]float64

// FlowFCT is one completed flow's identity and outcome, collected when
// FCTConfig.CollectFlows is set. Matching slices from two runs of the same
// trace pair one-to-one by ID.
type FlowFCT struct {
	ID   uint64
	Size int64
	FCT  time.Duration
}

// FCTResult carries the statistics of one experiment run.
type FCTResult struct {
	Scheme    string
	Workload  string
	Load      float64
	Generated int
	Completed int

	// AvgFCT is the mean completion time of finished flows.
	AvgFCT time.Duration
	// P99FCT is the 99th-percentile completion time.
	P99FCT time.Duration
	// NormFCT is mean(FCT)/mean(optimal FCT), the idle-network
	// normalization of Figures 9a, 10a and 11a/b (ratio of means: robust
	// to per-flow outliers).
	NormFCT float64
	// NormFCTPerFlow is the mean of per-flow FCT/optimal ratios; it is
	// tail-sensitive and reported for completeness.
	NormFCTPerFlow float64
	// SmallAvgFCT / LargeAvgFCT break the mean down by flow size
	// (< 100 KB, > 10 MB) for Figures 9b/c and 10b/c.
	SmallAvgFCT time.Duration
	LargeAvgFCT time.Duration
	SmallCount  int
	LargeCount  int

	// Drops counts packets lost anywhere in the fabric.
	Drops uint64
	// Retransmits and Timeouts aggregate sender loss recovery.
	Retransmits uint64
	Timeouts    uint64

	// ImbalanceCDF is the Figure 12 series (present when requested).
	ImbalanceCDF CDF
	// ImbalanceMean summarizes it.
	ImbalanceMean float64
	// QueueCDFs holds per-fabric-link queue occupancy CDFs by link name,
	// and HotspotQueueCDF the single most loaded link's (Figure 11c).
	QueueCDFs       map[string]CDF
	HotspotQueueCDF CDF
	// AvgQueueByLink reports each fabric link's mean queue in bytes
	// (Figure 16's per-port series).
	AvgQueueByLink map[string]float64

	// SimTime is how much virtual time ran; Events how many simulator
	// events executed (cost accounting for the bench harness).
	SimTime time.Duration
	Events  uint64
	// Wall is the real time the run cost (events/sec reporting in sweep
	// tables). It measures the environment, not the simulation:
	// determinism comparisons must zero it first.
	Wall time.Duration

	// Telemetry is the run's populated registry when FCTConfig.Telemetry
	// was set (already collected and flushed), nil otherwise.
	Telemetry *TelemetryRegistry

	// Trace is the sealed arrival recording when FCTConfig.Record was set.
	Trace *replay.Trace
	// FlowFCTs lists completed flows sorted by ID when
	// FCTConfig.CollectFlows was set.
	FlowFCTs []FlowFCT
}

// OptimalFCT returns the idle-network completion time used for
// normalization: wire-rate transmission on the access link, store-and-
// forward of one full segment on each subsequent hop, propagation both
// ways, and the final ACK's return. It deliberately excludes slow-start
// effects so the normalization is scheme-independent and monotone in size.
func OptimalFCT(t Topology, transport TransportConfig, size int64) time.Duration {
	tt := t.withDefaults()
	mss := tcp.MTUToMSS(transport.MTU)
	if mss <= 0 {
		mss = 1460
	}
	segments := (size + int64(mss) - 1) / int64(mss)
	wireBytes := size + segments*int64(fabric.HeaderOverhead)
	access := tt.AccessGbps * 1e9
	fab := tt.FabricGbps * 1e9

	// Pipeline: all bytes serialize once at the access link; the last
	// segment then stores-and-forwards across leaf→spine, spine→leaf and
	// leaf→host.
	lastSeg := size - (segments-1)*int64(mss)
	lastWire := float64(lastSeg + fabric.HeaderOverhead)
	transmit := float64(wireBytes*8)/access +
		(lastWire+float64(core.EncapOverhead))*8/fab + // leaf→spine
		(lastWire+float64(core.EncapOverhead))*8/fab + // spine→leaf
		lastWire*8/access // leaf→host

	// Propagation out (2 access + 2 fabric hops) plus the last ACK's trip
	// back (64 B over four hops plus the same propagation).
	const prop = 6e-6 // 2·2µs access + 2·1µs fabric
	ack := 64 * 8 * (2/access + 2/fab)
	return time.Duration((transmit + 2*prop + ack) * 1e9)
}

// RunFCT executes one FCT experiment on a single engine.
func RunFCT(cfg FCTConfig) (*FCTResult, error) {
	start := time.Now()
	res, err := runFCT(cfg)
	if res != nil {
		res.Wall = time.Since(start)
	}
	return res, err
}

func runFCT(cfg FCTConfig) (*FCTResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Replay != nil && cfg.Replay.Header.DurationNs > 0 {
		// The replayed horizon is the recording's, not the caller's: an
		// arrival window shorter than the trace span would truncate it.
		cfg.Duration = time.Duration(cfg.Replay.Header.DurationNs)
	}
	fabScheme, transport, err := schemeForFabric(cfg.Scheme, cfg.Transport.Kind)
	if err != nil {
		return nil, err
	}
	params := DefaultParams()
	if cfg.Scheme == SchemeCONGAFlow {
		params = core.CongaFlowParams()
	}
	if cfg.Params != nil {
		params = *cfg.Params
	}

	eng := sim.New()
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = telemetry.New(*cfg.Telemetry)
	}
	net, err := cfg.Topology.build(eng, fabScheme, params, cfg.WCMPWeights, cfg.Seed, reg)
	if err != nil {
		return nil, err
	}

	dist := cfg.Custom
	if dist == nil {
		dist = cfg.Workload.Dist()
	}

	var rec *stats.FCTRecorder
	if cfg.SampleCap > 0 {
		rec = stats.NewFCTRecorder(0)
		rec.Bound(cfg.SampleCap, cfg.Seed)
	} else {
		rec = stats.NewFCTRecorder(cfg.MaxFlows)
	}
	var retx, timeouts uint64
	tcpCfg := cfg.Transport.tcpConfig()
	mpCfg := mptcp.Config{Subflows: cfg.Transport.Subflows, TCP: tcpCfg, ChunkSegments: 4}

	stride := uint64(1)
	if transport == TransportMPTCP {
		stride = uint64(cfg.Transport.Subflows)
	}

	// Per-engine object pools: flows, endpoints and MPTCP connections
	// recycle for the whole run, so the steady state of the workload loop
	// allocates nothing. The completion callbacks are created once per run
	// (not per flow) and recompute the per-flow optimal FCT from f.Size —
	// OptimalFCT is pure, so moving it from start to completion changes no
	// simulation event.
	pool := tcp.NewFlowPool()
	mpool := mptcp.NewPool()
	var flowLog []FlowFCT
	tcpDone := func(f *tcp.Flow, now sim.Time) {
		opt := sim.Duration(OptimalFCT(cfg.Topology, cfg.Transport, f.Size))
		rec.Record(f.Size, f.FCT(now), opt)
		st := f.Sender.Stats()
		retx += st.RetxSegments
		timeouts += st.Timeouts
		if cfg.CollectFlows {
			flowLog = append(flowLog, FlowFCT{ID: f.Sender.FlowID(), Size: f.Size, FCT: time.Duration(f.FCT(now))})
		}
	}
	mptcpDone := func(f *mptcp.Flow, now sim.Time) {
		opt := sim.Duration(OptimalFCT(cfg.Topology, cfg.Transport, f.Size))
		rec.Record(f.Size, f.FCT(now), opt)
		subs := f.Conn.Subflows()
		for _, s := range subs {
			st := s.Stats()
			retx += st.RetxSegments
			timeouts += st.Timeouts
		}
		if cfg.CollectFlows {
			flowLog = append(flowLog, FlowFCT{ID: subs[0].FlowID(), Size: f.Size, FCT: time.Duration(f.FCT(now))})
		}
	}
	starter := func(src, dst *fabric.Host, id uint64, size int64) {
		switch transport {
		case TransportMPTCP:
			mpool.StartFlow(eng, src, dst, id, size, mpCfg, mptcpDone)
		default:
			pool.StartFlow(eng, src, dst, id, size, tcpCfg, tcpDone)
		}
	}

	// The workload source is either a live Poisson generator or a replay
	// injector; both schedule one engine event per arrival whose body
	// starts the flow and then schedules the next arrival, so a replayed
	// run creates events in the identical order its recording did.
	var traceRec *replay.Recorder
	if cfg.Record {
		traceRec = &replay.Recorder{Header: cfg.traceHeader(dist.Name())}
	}
	var startSource func()
	var generated func() int
	if cfg.Replay != nil {
		if err := cfg.checkReplay(); err != nil {
			return nil, err
		}
		var obs func(replay.Flow)
		if traceRec != nil {
			// Re-recording a replay preserves the original workload
			// provenance; only scheme/seed describe the current run.
			traceRec.Header.Workload = cfg.Replay.Header.Workload
			traceRec.Header.Load = cfg.Replay.Header.Load
			obs = func(f replay.Flow) { traceRec.Add(f) }
		}
		inj := newReplayInjector(eng, net, cfg.Replay.Flows, starter, obs)
		startSource = inj.Start
		generated = func() int { return inj.Generated }
	} else {
		var observe func(workload.Arrival)
		if traceRec != nil {
			observe = func(a workload.Arrival) {
				traceRec.Add(replay.Flow{At: a.At, Src: a.Src, Dst: a.Dst, FlowID: a.FlowID, Size: a.Size, Kind: replay.KindWorkload})
			}
		}
		gen, err := workload.NewGenerator(eng, net, workload.GenConfig{
			Load:          cfg.Load,
			Dist:          dist,
			Duration:      sim.Duration(cfg.Duration),
			MaxFlows:      cfg.MaxFlows,
			InterLeafOnly: true,
			Stride:        stride,
			Seed:          cfg.Seed,
			Observe:       observe,
		}, starter)
		if err != nil {
			return nil, err
		}
		startSource = gen.Start
		generated = func() int { return gen.Generated }
	}

	// The samplers tick at fixed periods over a known horizon, so their
	// buffers can be sized exactly instead of growing during the run —
	// or bounded by SampleCap reservoirs when the caller asked for fixed
	// memory.
	horizon := sim.Duration(cfg.Duration) + sim.Duration(cfg.DrainTimeout)
	var imb *stats.ImbalanceSampler
	if cfg.CollectImbalance {
		imb = stats.NewImbalanceSampler(net.Leaves[0].Uplinks(), 10*sim.Millisecond)
		if cfg.SampleCap > 0 {
			imb.Values.Reservoir(cfg.SampleCap, cfg.Seed+101)
		} else {
			imb.Values.Reserve(int(horizon / (10 * sim.Millisecond)))
		}
		imb.Start(eng)
	}
	var qs *stats.QueueSampler
	if cfg.CollectQueues {
		qs = stats.NewQueueSampler(net.FabricLinks(), 100*sim.Microsecond)
		if cfg.SampleCap > 0 {
			qs.All.Reservoir(cfg.SampleCap, cfg.Seed+201)
			for i := range qs.PerLink {
				qs.PerLink[i].Reservoir(cfg.SampleCap, cfg.Seed+202+uint64(i))
			}
		} else {
			samples := int(horizon / (100 * sim.Microsecond))
			qs.All.Reserve(samples * len(net.FabricLinks()))
			for i := range qs.PerLink {
				qs.PerLink[i].Reserve(samples)
			}
		}
		qs.Start(eng)
	}

	// The streaming tap surfaces run progress in its snapshots; the
	// closure runs on the engine goroutine at publish safe points, so the
	// plain reads need no synchronization.
	reg.SetProgress(func() telemetry.Progress {
		return telemetry.Progress{
			FlowsGenerated: generated(),
			FlowsCompleted: rec.Flows,
			Events:         eng.Executed(),
		}
	})

	startSource()
	eng.Run(sim.Duration(cfg.Duration) + sim.Duration(cfg.DrainTimeout))

	res := &FCTResult{
		Scheme:         SchemeName(cfg.Scheme),
		Workload:       dist.Name(),
		Load:           cfg.Load,
		Generated:      generated(),
		Completed:      rec.Flows,
		AvgFCT:         time.Duration(rec.Overall.Mean() * 1e9),
		P99FCT:         time.Duration(rec.Overall.Quantile(0.99) * 1e9),
		NormFCT:        rec.NormOfMeans(),
		NormFCTPerFlow: rec.OverallNorm.Mean(),
		SmallAvgFCT:    time.Duration(rec.Small.Mean() * 1e9),
		LargeAvgFCT:    time.Duration(rec.Large.Mean() * 1e9),
		SmallCount:     rec.Small.N(),
		LargeCount:     rec.Large.N(),
		Drops:          net.TotalDrops(),
		Retransmits:    retx,
		Timeouts:       timeouts,
		SimTime:        time.Duration(eng.Now()),
		Events:         eng.Executed(),
	}
	if reg != nil {
		// Stamp trace ancestry into the sink headers: flushed telemetry
		// from a replayed (or recording) run names the workload behind it.
		if cfg.Replay != nil {
			reg.SetProvenance(traceProvenance("replay", cfg.Replay.Header))
		} else if traceRec != nil {
			reg.SetProvenance(traceProvenance("record", traceRec.Trace().Header))
		}
		reg.Collect()
		reg.FinishTap(eng.Now())
		if err := reg.Flush(); err != nil {
			return nil, fmt.Errorf("conga: telemetry flush: %w", err)
		}
		reg.ArchiveToHub()
		res.Telemetry = reg
	}
	if traceRec != nil {
		res.Trace = traceRec.Trace()
	}
	if cfg.CollectFlows {
		sort.Slice(flowLog, func(i, j int) bool { return flowLog[i].ID < flowLog[j].ID })
		res.FlowFCTs = flowLog
	}
	if imb != nil {
		res.ImbalanceCDF = imb.Values.CDF()
		res.ImbalanceMean = imb.Values.Mean()
	}
	if qs != nil {
		res.QueueCDFs = make(map[string]CDF, len(net.FabricLinks()))
		res.AvgQueueByLink = make(map[string]float64, len(net.FabricLinks()))
		hotIdx, hotMean := -1, -1.0
		for i, l := range net.FabricLinks() {
			res.QueueCDFs[l.Name] = qs.PerLink[i].CDF()
			m := qs.PerLink[i].Mean()
			res.AvgQueueByLink[l.Name] = m
			if m > hotMean {
				hotMean, hotIdx = m, i
			}
		}
		if hotIdx >= 0 {
			res.HotspotQueueCDF = qs.PerLink[hotIdx].CDF()
		}
	}
	return res, nil
}
