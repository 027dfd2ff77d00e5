package main

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"conga"
	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/mptcp"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
	"conga/internal/telemetry"
	"conga/internal/workload"
)

// spec is one benchmark workload: a paper-shaped run template plus the
// knobs that size it. Exactly one of fct and incast is set.
type spec struct {
	name string

	fct *conga.FCTConfig
	// budget is the offered volume of one FCT run: the run carries the
	// prefix of the seeded Poisson arrival sequence whose sizes sum
	// closest to it. Enterprise flow sizes have a coefficient of
	// variation of 8, so a fixed flow count would make the work of one
	// run swing several-fold between seeds; a fixed volume keeps the cost
	// of a run close to constant while the arrivals stay the generator's.
	budget int64

	incast *conga.IncastConfig

	// engine shapes the isolated sim.Engine loop after the workload:
	// concurrently pending events and the delays between an event and
	// the one it schedules (serialization and propagation times, plus
	// timer-like far-future delays where the workload arms many RTOs).
	// The pending counts are measured: `perfbench -probe-pending` samples
	// sim.Engine.Pending() at every ACK of the first input of seeds 1-3,
	// and each count here is the median of those three runs' medians.
	engine engineShape
}

// specs lists the workloads in presentation order; BENCHMARK.json and
// README.md name the same four and say why each was chosen.
var specs = []*spec{
	{
		name: "testbed-enterprise-conga",
		fct: &conga.FCTConfig{
			Topology:  conga.Testbed(),
			Scheme:    conga.SchemeCONGA,
			Workload:  conga.WorkloadEnterprise,
			Load:      0.6,
			Transport: conga.TransportConfig{MinRTO: 10 * time.Millisecond},
			Duration:  100 * time.Millisecond,
		},
		budget: 400 << 20,
		engine: engineShape{pending: 111, delays: []sim.Time{1230, 2000, 330, 1000}},
	},
	{
		name: "scale256-enterprise-ecmp",
		fct: func() *conga.FCTConfig {
			c := conga.ScaleConfig{Leaves: []int{256}, AccessGbps: []float64{40}, Scheme: conga.SchemeECMP}.Configs()[0]
			return &c
		}(),
		budget: 400 << 20,
		engine: engineShape{pending: 228, delays: []sim.Time{310, 1000, 2000, 330}},
	},
	{
		name: "incast63-mptcp",
		incast: &conga.IncastConfig{
			Topology:     conga.Testbed(),
			Scheme:       conga.SchemeMPTCPMarker,
			Transport:    conga.TransportConfig{Kind: conga.TransportMPTCP, MinRTO: time.Millisecond, Subflows: 8},
			Fanout:       63,
			RequestBytes: 10 << 20,
			Rounds:       8,
		},
		engine: engineShape{pending: 486, delays: []sim.Time{1230, 2000, 1000, sim.Millisecond}},
	},
	{
		name: "linkfail-telemetry-conga",
		fct: &conga.FCTConfig{
			Topology: func() conga.Topology {
				t := conga.Testbed()
				t.FailedLinks = [][3]int{{1, 1, 1}}
				return t
			}(),
			Scheme:    conga.SchemeCONGA,
			Workload:  conga.WorkloadEnterprise,
			Load:      0.6,
			Transport: conga.TransportConfig{MinRTO: 10 * time.Millisecond},
			Duration:  100 * time.Millisecond,
			Telemetry: conga.TelemetryAll(""),
		},
		budget: 400 << 20,
		engine: engineShape{pending: 116, delays: []sim.Time{1230, 2000, 330, 1000}},
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is one run's generated input: the derived simulation seed and,
// for FCT workloads, the byte-budgeted arrival prefix.
type input struct {
	index int
	seed  uint64
	flows int   // arrivals in the run (FCT only)
	bytes int64 // their summed sizes (FCT only)
}

// deriveSeed gives run index i of benchmark seed s its own simulation seed
// (splitmix64), so one benchmark process averages over many inputs while
// the same benchmark seed always yields the same sequence of inputs.
func deriveSeed(s uint64, i int) uint64 {
	z := s*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // the harness treats seed 0 as "default"
	}
	return z
}

// inputs derives run inputs for one workload. FCT inputs are sized by
// drawing the arrival sequence with workload.Generator.Pregenerate — the
// generator the run itself uses, consuming its RNG in the same order — on
// a network built once for the purpose.
type inputs struct {
	sp   *spec
	seed uint64
	eng  *sim.Engine
	net  *fabric.Network
}

func newInputs(sp *spec, seed uint64) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed}
	if sp.fct != nil {
		in.eng = sim.New()
		net, err := fabric.NewNetwork(in.eng, fabricConfig(sp.fct.Topology, sp.fct.Scheme, 1, nil))
		if err != nil {
			return nil, err
		}
		in.net = net
	}
	return in, nil
}

// genConfig is the generator configuration RunFCT builds for cfg.
func genConfig(cfg *conga.FCTConfig, seed uint64, maxFlows int) workload.GenConfig {
	stride := uint64(1)
	if cfg.Scheme == conga.SchemeMPTCPMarker || cfg.Transport.Kind == conga.TransportMPTCP {
		stride = uint64(cfg.Transport.Subflows)
	}
	return workload.GenConfig{
		Load:          cfg.Load,
		Dist:          cfg.Workload.Dist(),
		Duration:      sim.Duration(cfg.Duration),
		MaxFlows:      maxFlows,
		InterLeafOnly: true,
		Stride:        stride,
		Seed:          seed,
	}
}

// pregenerate draws the first maxFlows arrivals of the run's window.
func (in *inputs) pregenerate(seed uint64, maxFlows int) ([]workload.Arrival, error) {
	gen, err := workload.NewGenerator(in.eng, in.net, genConfig(in.sp.fct, seed, maxFlows), func(*fabric.Host, *fabric.Host, uint64, int64) {})
	if err != nil {
		return nil, err
	}
	return gen.Pregenerate(), nil
}

// loadTolerance bounds how far a run's flow count may stray from
// budget / E[size]. Within it, the run's mean flow size — and so the load
// it offers over its arrival window — stays near the nominal Load; without
// it, whether a run happens to draw a 100 MB flow decides its cost.
const loadTolerance = 0.05

// get returns run i's input. An FCT input is the first of run i's
// candidate seeds whose byte-budgeted arrival prefix meets loadTolerance.
func (in *inputs) get(i int) (input, error) {
	x := input{index: i, seed: deriveSeed(in.seed, i)}
	if in.sp.fct == nil {
		return x, nil
	}
	target := float64(in.sp.budget) / in.sp.fct.Workload.Dist().Mean()
	// A prefix longer than this is rejected, so no more need be drawn.
	limit := int(target*(1+loadTolerance)) + 1
	for j := 0; j < 1000; j++ {
		seed := deriveSeed(x.seed, j)
		arr, err := in.pregenerate(seed, limit)
		if err != nil {
			return x, err
		}
		n := budgetPrefix(arr, in.sp.budget)
		if math.Abs(float64(n)/target-1) <= loadTolerance {
			x.seed, x.flows = seed, n
			for _, a := range arr[:n] {
				x.bytes += a.Size
			}
			return x, nil
		}
	}
	return x, fmt.Errorf("run %d: no candidate seed offers %d bytes in %.0f flows ±%g", i, in.sp.budget, target, loadTolerance)
}

// budgetPrefix returns the length of the arrival prefix whose sizes sum
// closest to budget (at least one arrival).
func budgetPrefix(arr []workload.Arrival, budget int64) int {
	var sum int64
	for i, a := range arr {
		prev := sum
		sum += a.Size
		if sum >= budget {
			if i > 0 && budget-prev < sum-budget {
				return i
			}
			return i + 1
		}
	}
	return len(arr)
}

// fctConfig is the RunFCT configuration of one input.
func (sp *spec) fctConfig(x input) conga.FCTConfig {
	cfg := *sp.fct
	cfg.Seed = x.seed
	cfg.MaxFlows = x.flows
	cfg.CollectFlows = true
	return cfg
}

// incastConfig is the RunIncast configuration of one input.
func (sp *spec) incastConfig(x input) conga.IncastConfig {
	cfg := *sp.incast
	cfg.Seed = x.seed
	return cfg
}

// fabricConfig lowers a conga.Topology onto fabric.Config the way the
// harness does for a sequential run.
func fabricConfig(t conga.Topology, scheme conga.Scheme, seed uint64, reg *telemetry.Registry) fabric.Config {
	if scheme == conga.SchemeMPTCPMarker {
		scheme = conga.SchemeECMP
	}
	params := core.DefaultParams()
	if scheme == conga.SchemeCONGAFlow {
		params = core.CongaFlowParams()
	}
	return fabric.Config{
		NumLeaves:      t.Leaves,
		NumSpines:      t.Spines,
		HostsPerLeaf:   t.HostsPerLeaf,
		LinksPerSpine:  t.LinksPerSpine,
		AccessRateBps:  t.AccessGbps * 1e9,
		FabricRateBps:  t.FabricGbps * 1e9,
		EdgeBufBytes:   t.EdgeBufBytes,
		FabricBufBytes: t.FabricBufBytes,
		Scheme:         scheme,
		Params:         params,
		Seed:           seed,
		Telemetry:      reg,
		DisableFusion:  t.DisableFusion,
	}
}

// tcpConfig mirrors the harness's lowering of conga.TransportConfig; the
// specs set MinRTO and leave MTU at its 1500-byte default.
func tcpConfig(tc conga.TransportConfig) tcp.Config {
	c := tcp.DefaultConfig()
	c.MSS = tcp.MTUToMSS(cmp.Or(tc.MTU, 1500))
	c.MinRTO = sim.Duration(tc.MinRTO)
	c.InitRTO = max(c.MinRTO, 5*sim.Millisecond)
	c.MaxCwnd = 2 << 20
	c.ReorderWindow = sim.Duration(tc.ReorderWindow)
	return c
}

// The harness's defaults for the run horizons the specs leave unset:
// FCTConfig.DrainTimeout and IncastConfig.Timeout.
const (
	fctDrainTimeout = 2 * time.Second
	incastTimeout   = 20 * time.Second
)

// rebuilt is one input's run assembled from the constructors the harness
// calls, stopped before its first event.
type rebuilt struct {
	eng     *sim.Engine
	net     *fabric.Network
	horizon sim.Time // the bound the harness runs the engine to
	rec     *stats.FCTRecorder
	flows   []conga.FlowFCT // completed FCT flows, in completion order
}

// rebuild assembles input x's run the way the harness does between its
// configuration and its first event: engine, network, link failures,
// telemetry registry, flow pool, FCT recorder and arrival source, or for
// Incast the servers' MPTCP connections and the first round. onAck, when
// set, is called at every cumulative-ACK advance of every sender.
func (sp *spec) rebuild(x input, onAck func(int64, sim.Time)) (*rebuilt, error) {
	r := &rebuilt{eng: sim.New()}
	if sp.incast != nil {
		cfg := sp.incastConfig(x)
		net, err := fabric.NewNetwork(r.eng, fabricConfig(cfg.Topology, cfg.Scheme, cfg.Seed, nil))
		if err != nil {
			return nil, err
		}
		r.net, r.horizon = net, sim.Duration(incastTimeout)
		mp := mptcp.Config{Subflows: cfg.Transport.Subflows, TCP: tcpConfig(cfg.Transport), ChunkSegments: 4}
		client := net.Host(0)
		perServer := cfg.RequestBytes / int64(cfg.Fanout)
		conns := make([]*mptcp.Connection, cfg.Fanout)
		remaining, rounds := 0, 0
		var startRound func(now sim.Time)
		for i := range conns {
			c := mptcp.Dial(r.eng, net.Host(i+1), client, uint64(1000+i*16), mp)
			if onAck != nil {
				for _, sub := range c.Subflows() {
					acked := sub.OnAcked
					sub.OnAcked = func(bytes int64, now sim.Time) {
						onAck(bytes, now)
						acked(bytes, now)
					}
				}
			}
			c.OnComplete = func(now sim.Time) {
				if remaining--; remaining == 0 {
					if rounds++; rounds < cfg.Rounds {
						startRound(now)
					}
				}
			}
			conns[i] = c
		}
		startRound = func(now sim.Time) {
			remaining = cfg.Fanout
			for _, c := range conns {
				c.Transfer(perServer, now)
			}
		}
		r.eng.At(0, startRound)
		return r, nil
	}
	cfg := sp.fctConfig(x)
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = telemetry.New(*cfg.Telemetry)
	}
	net, err := fabric.NewNetwork(r.eng, fabricConfig(cfg.Topology, cfg.Scheme, cfg.Seed, reg))
	if err != nil {
		return nil, err
	}
	for _, f := range cfg.Topology.FailedLinks {
		net.FailLink(f[0], f[1], f[2])
	}
	r.net, r.horizon = net, sim.Duration(cfg.Duration)+sim.Duration(fctDrainTimeout)
	pool := tcp.NewFlowPool()
	r.rec = stats.NewFCTRecorder(cfg.MaxFlows)
	tc := tcpConfig(cfg.Transport)
	done := func(f *tcp.Flow, now sim.Time) {
		r.rec.Record(f.Size, f.FCT(now), sim.Duration(conga.OptimalFCT(cfg.Topology, cfg.Transport, f.Size)))
		r.flows = append(r.flows, conga.FlowFCT{ID: f.Sender.FlowID(), Size: f.Size, FCT: time.Duration(f.FCT(now))})
	}
	gen, err := workload.NewGenerator(r.eng, net, genConfig(&cfg, cfg.Seed, cfg.MaxFlows), func(src, dst *fabric.Host, id uint64, size int64) {
		f := pool.StartFlow(r.eng, src, dst, id, size, tc, done)
		if onAck != nil {
			f.Sender.OnAcked = onAck
		}
	})
	if err != nil {
		return nil, err
	}
	gen.Start()
	return r, nil
}

// topology returns the workload's fabric shape.
func (sp *spec) topology() conga.Topology {
	if sp.incast != nil {
		return sp.incast.Topology
	}
	return sp.fct.Topology
}

// scheme returns the workload's presentation-level scheme.
func (sp *spec) scheme() conga.Scheme {
	if sp.incast != nil {
		return sp.incast.Scheme
	}
	return sp.fct.Scheme
}
