package scenario

import (
	"fmt"
	"runtime"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/wire"
	"fabricgossip/internal/workload"
)

// Options parameterizes one scenario run.
type Options struct {
	// Peers is the total network size across all organizations (default
	// 100). It must divide evenly by Orgs. The catalog scales its fault
	// scripts to any size up to thousands of peers.
	Peers int
	// Orgs is the organization count (default 1). Multi-org catalog
	// entries (Def.MinOrgs > 1) bump it to their minimum automatically.
	Orgs int
	// OrgSizes, when set, overrides Peers/Orgs with an explicit per-org
	// layout (asymmetric consortiums). Each entry needs at least 2 peers.
	// Catalog entries with a Sizes shaper populate it from Peers.
	OrgSizes []int
	// Variant selects the protocol under test (default VariantEnhanced).
	// A scenario's OrgVariants override it per organization.
	Variant harness.Variant
	// Seed drives every random stream; the same seed reproduces the run
	// byte for byte.
	Seed int64
	// TxPerBlock/TxPayload shape the workload blocks (defaults 10 x 512 B:
	// small enough that thousand-peer runs stay fast, large enough that
	// bandwidth overhead is dominated by block bodies).
	TxPerBlock int
	TxPayload  int
	// Consenters, when > 0, overrides the scenario's ordering-service
	// shape: any catalog entry replays against a Raft consenter cluster
	// of this size instead of the single orderer (cmd/scenarios
	// -consenters). Zero inherits the scenario's own Consenters setting.
	Consenters int
	// Sharding overrides the scenario's Sharded flag per run
	// (cmd/scenarios -shards): ShardOn forces the sharded parallel
	// engine, ShardOff forces the sequential one, ShardAuto (the zero
	// value) inherits the scenario's own setting.
	Sharding ShardMode
	// FixedLookahead disables the sharded coordinator's adaptive barrier
	// elision, forcing the full ceremony at every window edge. Both modes
	// produce byte-identical fingerprints (the equivalence property test
	// pins it); the knob exists for that test and for bisecting.
	FixedLookahead bool
	// Tail, when > 0, overrides the scenario's own post-injection tail
	// (cmd/scenarios -tail). Shortening the tail changes the fingerprint
	// lineage (fewer virtual seconds of traffic) and can cut off recovery
	// before it closes every gap, so it is a tool for reduced-duration
	// determinism smokes at extreme scale, not for measurement runs.
	Tail time.Duration

	// Trace enables the structured event-trace layer (cmd/scenarios
	// -trace-jsonl): typed trace points from the transport and every
	// subsystem hook, buffered per emission context and merged into
	// Report.Events by (time, context, emission order). Trace points are
	// passive — no random draws, no scheduled events — so enabling them
	// leaves the run's fingerprint byte-identical; the merged stream
	// itself is deterministic per seed regardless of GOMAXPROCS. Off by
	// default: the per-message hot path then carries only a nil check.
	Trace bool
	// FlightRing arms the crash flight recorder: each emission context
	// keeps a bounded ring of this many recent trace events, dumped to a
	// file when a run dies on a lookahead-violation panic or fails its
	// pool-leak audit. With Trace also set the full buffers back the
	// recorder instead (the dump still carries only the last FlightRing
	// events per context). Zero disables the recorder.
	FlightRing int
	// FlightDir is where flight-recorder dumps land (default the OS temp
	// directory).
	FlightDir string
	// TimeSeries, when > 0, samples every registry instrument at this
	// period of simulated time into Report.Series. The sampler is an
	// engine event (barrier-hosted under a sharded network), so unlike
	// Trace it extends the run's event lineage — same-seed runs with the
	// same period stay deterministic, but fingerprints are comparable
	// only across runs with identical TimeSeries settings (like Tail).
	TimeSeries time.Duration
}

// ShardMode is the per-run sharding override.
type ShardMode int

const (
	// ShardAuto inherits the scenario's Sharded flag.
	ShardAuto ShardMode = iota
	// ShardOn forces the sharded parallel engine.
	ShardOn
	// ShardOff forces the sequential engine.
	ShardOff
)

func (o Options) withDefaults() Options {
	if o.Peers == 0 {
		o.Peers = 100
	}
	if o.Orgs == 0 {
		o.Orgs = 1
	}
	if o.Variant == "" {
		o.Variant = harness.VariantEnhanced
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TxPerBlock == 0 {
		o.TxPerBlock = 10
	}
	if o.TxPayload == 0 {
		o.TxPayload = 512
	}
	return o
}

func (o Options) topology() (Topology, error) {
	if len(o.OrgSizes) > 0 {
		sizes := make([]int, len(o.OrgSizes))
		for i, s := range o.OrgSizes {
			if s < 2 {
				return Topology{}, fmt.Errorf("scenario: org %d has %d peers, need at least 2", i, s)
			}
			sizes[i] = s
		}
		return Topology{Sizes: sizes}, nil
	}
	if o.Orgs < 1 {
		return Topology{}, fmt.Errorf("scenario: need at least 1 org, got %d", o.Orgs)
	}
	if o.Peers%o.Orgs != 0 {
		return Topology{}, fmt.Errorf("scenario: %d peers do not divide evenly into %d orgs", o.Peers, o.Orgs)
	}
	per := o.Peers / o.Orgs
	if per < 2 {
		return Topology{}, fmt.Errorf("scenario: %d peers per org, need at least 2", per)
	}
	return Uniform(o.Orgs, per), nil
}

// runner is the per-run mutable state behind the fault actions and
// measurement hooks.
type runner struct {
	sc    Scenario
	opt   Options
	top   Topology
	net   *harness.Network
	plane *workload.Plane // nil unless sc.Workload is set

	// sharded reports whether the network actually runs the sharded
	// engine (the request may fall back sequential on zero lookahead).
	sharded bool

	// orgRecs and lat take writes from commit/reception hooks, which run
	// on each organization's own shard of a sharded network — so both are
	// partitioned per org (the network-wide views merge at report time).
	orgRecs []*metrics.RecoveryRecorder
	lat     *metrics.GroupedLatency

	injected int               // distinct blocks delivered to at least one org
	seen     map[uint64]bool   // blocks counted in injected
	orgSeen  []map[uint64]bool // per-org delivered blocks
	// orgStart[o][num] is the virtual time the block first entered org o
	// (its leader's reception); later receptions record deltas against it.
	orgStart []map[uint64]time.Duration

	// Per-peer measurement state, reset when a peer restarts. Written by
	// the peer's own shard (commit hooks) or at coordinator barriers
	// (fault actions), never both at once.
	lastCommit []int64 // last in-order committed block, -1 if none
	restartAt  []time.Duration
	recovering []bool

	// Per-org counters (shard-local writers), summed at report time.
	transitions     []int
	orderViolations []int

	// Membership-view sampling state (MeasureMembership only). liveBuf and
	// actualBuf are the sampler's reusable scratch; convergedAt is the
	// first sample time of the current everyone-agrees-on-the-leader
	// streak (-1 while disagreeing).
	viewSamples int
	lastCompl   float64
	convergedAt time.Duration
	liveBuf     []wire.NodeID
	actualBuf   []wire.NodeID

	// Heap high-water sampling (wall-side diagnostic, never fingerprinted):
	// sharded runs sample at coordinator barriers, sequential runs piggyback
	// on the injection/fault closures already scheduled — either way no new
	// simulation events exist, so EngineEvents (which IS fingerprinted) is
	// untouched. lastHeapAt throttles the ReadMemStats stop-the-world cost
	// to one sample per heapSampleInterval of simulated time.
	heapHigh    uint64
	heapSampled bool
	lastHeapAt  time.Duration

	// Observability plane. tracer always exists: one buffer per emission
	// context (the layout harness.Network owns), holding at least the
	// pinned events Report.Trace is rendered from. traceAll adds every
	// high-volume kind (Trace or FlightRing); the tracer's contexts then
	// back the structured event stream and the flight recorder's rings.
	// obsRegs (nil unless Options opts in) holds one shard-local registry
	// per context, merged at report (and time-series sample) time.
	tracer     *obs.Tracer
	traceAll   bool
	obsRegs    []*obs.Registry
	flight     *obs.FlightRecorder
	series     *obs.Series
	flightDump string
}

// RunNamed instantiates the named catalog scenario for opt's topology and
// runs it. Entries that need more organizations than opt.Orgs provides
// (Def.MinOrgs) get their minimum automatically.
func RunNamed(name string, opt Options) (*Report, error) {
	def, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Orgs < def.MinOrgs {
		opt.Orgs = def.MinOrgs
	}
	if def.Sizes != nil && len(opt.OrgSizes) == 0 {
		opt.OrgSizes = def.Sizes(opt.Peers)
	}
	// An explicit layout bypasses the Peers/Orgs split entirely, so it must
	// satisfy the entry's org minimum itself — org-targeted scripts would
	// otherwise run on degenerate topologies (e.g. the "remote org" being
	// the whole network) and report nonsense instead of failing.
	if len(opt.OrgSizes) > 0 && len(opt.OrgSizes) < def.MinOrgs {
		return nil, fmt.Errorf("%s: %d org sizes given, scenario needs at least %d organizations",
			name, len(opt.OrgSizes), def.MinOrgs)
	}
	top, err := opt.topology()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sc := def.Build(top)
	sc.Name = def.Name
	sc.Description = def.Description
	return Run(sc, opt)
}

// Run executes the scenario and returns its report. The run is fully
// deterministic in (scenario, Options).
func Run(sc Scenario, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if opt.Tail > 0 {
		sc.Tail = opt.Tail
	}
	top, err := opt.topology()
	if err != nil {
		return nil, err
	}
	if sc.Workload != nil {
		// The workload plane cuts blocks through a real ordering service;
		// a premade chain would collide with it on block numbers.
		if sc.Blocks > 0 {
			return nil, fmt.Errorf("scenario: %q sets both Blocks and Workload", sc.Name)
		}
	} else if sc.Blocks <= 0 {
		return nil, fmt.Errorf("scenario: %q injects no blocks", sc.Name)
	}
	if sc.Workload == nil {
		for _, ev := range sc.Events {
			switch ev.Action.(type) {
			case StartWorkload, StopWorkload:
				return nil, fmt.Errorf("scenario: %q schedules %q without a Workload config",
					sc.Name, ev.Action)
			}
		}
	}
	if len(sc.InitialDown) >= top.Total() {
		return nil, fmt.Errorf("scenario: all %d peers initially down", top.Total())
	}
	for _, i := range sc.InitialDown {
		if i < 0 || i >= top.Total() {
			return nil, fmt.Errorf("scenario: initial-down peer %d out of range [0, %d)", i, top.Total())
		}
	}
	for _, ev := range sc.Events {
		for _, i := range actionPeers(ev.Action) {
			if i < 0 || i >= top.Total() {
				return nil, fmt.Errorf("scenario: event %q at %v names peer %d, outside [0, %d)",
					ev.Action, ev.At, i, top.Total())
			}
		}
		for _, o := range actionOrgs(ev.Action) {
			if o < 0 || o >= top.Orgs() {
				return nil, fmt.Errorf("scenario: event %q at %v names org %d, outside [0, %d)",
					ev.Action, ev.At, o, top.Orgs())
			}
		}
		if split, ok := ev.Action.(PartitionSplit); ok && (split.Split <= 0 || split.Split >= top.Total()) {
			return nil, fmt.Errorf("scenario: event %q at %v splits outside (0, %d)",
				ev.Action, ev.At, top.Total())
		}
	}
	consenters := sc.Consenters
	if opt.Consenters > 0 {
		consenters = opt.Consenters
	}
	for _, ev := range sc.Events {
		idxs, needs := actionConsenters(ev.Action)
		if needs && consenters == 0 {
			return nil, fmt.Errorf("scenario: event %q at %v needs a consenter cluster (Consenters > 0)",
				ev.Action, ev.At)
		}
		for _, c := range idxs {
			if c < 0 || c >= consenters {
				return nil, fmt.Errorf("scenario: event %q at %v names consenter %d, outside [0, %d)",
					ev.Action, ev.At, c, consenters)
			}
		}
	}

	sharded := sc.Sharded
	switch opt.Sharding {
	case ShardOn:
		sharded = true
	case ShardOff:
		sharded = false
	}

	r := &runner{
		sc:              sc,
		opt:             opt,
		top:             top,
		orgRecs:         make([]*metrics.RecoveryRecorder, top.Orgs()),
		lat:             metrics.NewGroupedLatency(),
		seen:            make(map[uint64]bool),
		orgSeen:         make([]map[uint64]bool, top.Orgs()),
		orgStart:        make([]map[uint64]time.Duration, top.Orgs()),
		lastCommit:      make([]int64, top.Total()),
		restartAt:       make([]time.Duration, top.Total()),
		recovering:      make([]bool, top.Total()),
		transitions:     make([]int, top.Orgs()),
		orderViolations: make([]int, top.Orgs()),
	}
	r.lat.EnsureGroups(top.Orgs())
	for o := 0; o < top.Orgs(); o++ {
		r.orgRecs[o] = metrics.NewRecoveryRecorder()
		r.orgSeen[o] = make(map[uint64]bool)
		r.orgStart[o] = make(map[uint64]time.Duration)
	}
	for i := range r.lastCommit {
		r.lastCommit[i] = -1
	}

	// One spec per organization; a scenario's OrgVariants pin protocols
	// per org, everything else inherits the run's variant.
	specs := make([]harness.OrgSpec, top.Orgs())
	for o := range specs {
		specs[o] = harness.OrgSpec{Peers: top.Size(o)}
		if o < len(sc.OrgVariants) && sc.OrgVariants[o] != "" {
			specs[o].Variant = sc.OrgVariants[o]
		}
	}
	net, err := harness.NewNetwork(harness.NetworkParams{
		Seed:    opt.Seed,
		Variant: opt.Variant,
		Orgs:    specs,
		Bucket:  time.Second,
		// Scenario reports only read per-node totals; the per-bucket
		// series would be the accountants' dominant allocation at 100k.
		TrafficTotals: true,
		// The recovery-plane extensions are scenario-scripted: anchors,
		// WAN separation and the consenter cluster only exist when the
		// scenario (or Options) asks for them, so every pre-existing
		// script runs byte-identically.
		AnchorRecovery:  sc.AnchorRecovery,
		WANDelay:        sc.WANDelay,
		Consenters:      consenters,
		ConsenterSpread: sc.ConsenterSpread,
		Sharded:         sharded,
		FixedLookahead:  opt.FixedLookahead,
	},
		// Fault handling wants faster membership and recovery turnarounds
		// than the paper's fault-free 10 s defaults.
		harness.WithNetworkGossipTune(func(self wire.NodeID, cfg *gossip.Config) {
			cfg.StateInfoInterval = time.Second
			cfg.AliveInterval = 2 * time.Second
			cfg.AliveExpiration = 5 * time.Second
			cfg.RecoveryInterval = 2 * time.Second
			cfg.RecoveryBatch = 64
			if sc.SwimMembership {
				// The SWIM defaults for dense views at n >= 1000: lapsed
				// peers survive as refutable suspects for five heartbeat
				// periods, rumors ride every message, and the shuffle
				// refreshes 128 view entries per heartbeat period.
				cfg.SuspectTimeout = 10 * time.Second
				cfg.PiggybackMax = 32
				cfg.PiggybackBudget = 4
				cfg.ShuffleInterval = 2 * time.Second
				cfg.ShuffleSample = 256
			}
		}),
		harness.WithNetworkCoreHook(r.instrument),
		harness.WithDeliverHook(r.onDeliver),
		harness.WithConsenterHook(func(c int, s raft.State, term uint64) {
			kind := obs.EvElection
			if s != raft.Leader {
				if !r.traceAll {
					return
				}
				kind = obs.EvRaftState
			}
			r.emitOrd(obs.Event{
				At: r.net.OrdererEngine().Now(), Kind: kind,
				Node: int32(c), Peer: -1, Num: term, Aux: uint64(s),
			})
		}),
	)
	if err != nil {
		return nil, err
	}
	r.net = net
	// The request may fall back sequential (no usable lookahead window);
	// trace buffering follows what the network actually runs.
	r.sharded = net.Sharded() != nil
	if r.sharded {
		// Barrier-hosted heap sampling: every shard is quiescent, so the
		// reading covers the whole network's live state.
		net.Sharded().OnBarrier(r.sampleHeap)
	}
	engine := net.Engine

	// Observability plane. The tracer keeps full buffers unless only the
	// flight recorder wants recent history (bounded rings; pinned events
	// survive either way). AttachObs installs only passive instruments (no
	// random draws, no events), so a Trace or FlightRing run's fingerprint
	// is byte-identical to a bare one; TimeSeries is the exception — its
	// sampler is an engine event, documented on Options.
	r.traceAll = opt.Trace || opt.FlightRing > 0
	ringCap := opt.FlightRing
	if opt.Trace {
		ringCap = 0
	}
	r.tracer = obs.NewTracer(net.ObsContexts(), ringCap)
	if r.traceAll || opt.TimeSeries > 0 {
		r.obsRegs = make([]*obs.Registry, net.ObsContexts())
		for i := range r.obsRegs {
			r.obsRegs[i] = obs.NewRegistry()
		}
		var shards []*obs.ShardTrace
		if r.traceAll {
			shards = r.tracer.Shards
		}
		net.AttachObs(r.obsRegs, shards)
	}
	if opt.FlightRing > 0 {
		r.flight = obs.NewFlightRecorder(r.tracer, opt.FlightRing, opt.FlightDir)
		if se := net.Sharded(); se != nil {
			se.SetViolationHook(func(src, dst int, msg string) {
				// Mid-window only the offending shard's ring is safe to
				// read; dump it before the panic unwinds so the artifact
				// survives the crash.
				if p, derr := r.flight.DumpShard(src, msg); derr == nil {
					r.flightDump = p
				}
			})
		}
	}
	if r.traceAll && r.sharded {
		var barrierN uint64
		net.Sharded().OnBarrier(func() {
			barrierN++
			r.emitCtl(obs.Event{At: engine.Now(), Kind: obs.EvBarrier, Node: -1, Peer: -1, Num: barrierN})
		})
	}

	// The workload plane must install before the cores start (its
	// per-peer validation pipelines hook OnCommit) and before any restart
	// event can fire (its rebuild hook must be registered).
	if sc.Workload != nil {
		plane, err := workload.Install(net, *sc.Workload)
		if err != nil {
			return nil, err
		}
		r.plane = plane
		if r.traceAll {
			// Block cutting happens on the ordering engine's goroutine
			// (the consenter shard, when sharded).
			ordEng := net.OrdererEngine()
			plane.OnBlockCut(func(consenter int, num uint64, txs int) {
				r.emitOrd(obs.Event{
					At: ordEng.Now(), Kind: obs.EvBlockCut,
					Node: int32(consenter), Peer: -1, Num: num, Aux: uint64(txs),
				})
			})
		}
	}
	if opt.TimeSeries > 0 {
		// The sampler merges every context's registry into one row per
		// period. It runs on the control engine — at coordinator barriers
		// under a sharded network — where all shard-local registries are
		// quiescent and safe to read.
		r.series = obs.NewSeries(opt.TimeSeries)
		sampler := engine.Every(opt.TimeSeries, func() {
			r.series.Sample(engine.Now(), r.obsRegs)
		})
		defer sampler.Stop()
	}

	net.StartAll()
	if sc.MeasureMembership {
		// Sample twice a second once the initial heartbeat view has had
		// Warmup to form. The sampler only reads core state — no random
		// draws, no sends — so it cannot perturb the run it measures.
		r.convergedAt = -1
		sampler := engine.Every(viewSampleInterval, r.sampleViews)
		defer sampler.Stop()
	}
	for _, i := range sc.InitialDown {
		net.Crash(i)
	}
	if len(sc.InitialDown) > 0 {
		r.emitCtl(obs.Event{At: engine.Now(), Kind: obs.EvInitialDown, Node: -1, Peer: -1})
	}

	// Schedule the dissemination workload: the ordering service streams
	// each cut block to every organization's leader (and retries
	// undelivered backlogs). With a workload plane the chain comes from
	// the plane's ordering service instead.
	var blocks []*ledger.Block
	if sc.Blocks > 0 {
		blocks = harness.BuildChain(sc.Blocks, opt.TxPerBlock, opt.TxPayload, opt.Seed)
		for i, b := range blocks {
			b := b
			engine.At(sc.Warmup+time.Duration(i)*sc.BlockInterval, func() {
				net.Append(b)
				r.sampleHeap()
			})
		}
	}

	// Schedule the fault script.
	for idx, ev := range sc.Events {
		idx, ev := idx, ev
		engine.At(ev.At, func() {
			r.emitCtl(obs.Event{At: engine.Now(), Kind: obs.EvFault, Node: -1, Peer: -1, Num: uint64(idx)})
			ev.Action.apply(r)
			r.sampleHeap()
		})
	}

	net.RunUntil(sc.End())
	net.StopAll()
	r.sampleHeapNow()

	// The report snapshots every fingerprinted counter (EngineEvents
	// included) before the leak audit's bounded drain executes the
	// deliveries still in flight at End — the drain must settle refcounts
	// without moving a single reported number.
	rep := r.report(blocks)
	if err := r.checkPoolLeaks(); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPoolLeaks asserts the pooled-envelope refcount invariant on every
// run: once in-flight deliveries settle, every Data/PushDigest drawn from a
// protocol's pool must have been released exactly refs times, so both
// outstanding counters read zero. Deliveries scheduled just before End are
// still in transit when the run stops (a release per delivery attempt is
// the invariant, and those attempts have not happened yet), so the audit
// first drains the engines a grace period past End — the cores are stopped,
// so the extra events release envelopes and do nothing else.
func (r *runner) checkPoolLeaks() error {
	r.net.RunUntil(r.sc.End() + 5*time.Second)
	data, digest := r.poolOutstanding()
	if data != 0 || digest != 0 {
		// The engines are quiescent after the drain, so the full
		// flight-recorder dump (every context) is safe here.
		detail := ""
		if r.flight != nil {
			reason := fmt.Sprintf("pool leak after drain: %d data, %d push-digest outstanding", data, digest)
			if p, derr := r.flight.Dump(reason); derr == nil {
				r.flightDump = p
				detail = fmt.Sprintf("; flight dump: %s", p)
			}
		}
		return fmt.Errorf("scenario: %q leaked pooled envelopes after drain: %d data, %d push-digest outstanding%s",
			r.sc.Name, data, digest, detail)
	}
	return nil
}

// poolOutstanding sums every protocol's pooled-envelope leak canaries.
func (r *runner) poolOutstanding() (data, digest int) {
	type pooled interface{ PoolOutstanding() (data, digest int) }
	for _, c := range r.net.Cores {
		if p, ok := c.Proto().(pooled); ok {
			d, g := p.PoolOutstanding()
			data += d
			digest += g
		}
	}
	return data, digest
}

// actionPeers returns the global peer indices an action addresses, for
// up-front range validation (a bad index must fail Run, not panic
// mid-simulation).
func actionPeers(a Action) []int {
	switch a := a.(type) {
	case CrashPeers:
		return a.Peers
	case RestartPeers:
		return a.Peers
	case SlowPeers:
		return a.Peers
	}
	return nil
}

// actionConsenters returns the consenter indices an action addresses and
// whether the action requires a consenter cluster at all.
func actionConsenters(a Action) (idxs []int, needs bool) {
	switch a := a.(type) {
	case CrashConsenter:
		return []int{a.Consenter}, true
	case RestartConsenter:
		return []int{a.Consenter}, true
	case CrashConsenterLeader:
		return nil, true
	case IsolateConsenters:
		return a.Consenters, true
	}
	return nil, false
}

// actionOrgs returns the organization indices an action addresses.
func actionOrgs(a Action) []int {
	switch a := a.(type) {
	case CrashOrg:
		return []int{a.Org}
	case RestartOrg:
		return []int{a.Org}
	case CrashOrgLeader:
		return []int{a.Org}
	case IsolateOrgs:
		return a.Orgs
	}
	return nil
}

// onDeliver traces ordering-service deliveries and maintains the injected
// counters. Redeliveries (leader failover replaying the stream) are never
// recounted.
func (r *runner) onDeliver(org, peer int, b *ledger.Block, redelivery bool) {
	// Deliveries run on the control engine (the pump's timer host).
	var re uint64
	if redelivery {
		re = 1
	}
	r.emitCtl(obs.Event{
		At: r.net.Engine.Now(), Kind: obs.EvDeliver,
		Node: int32(peer), Peer: int32(org), Num: b.Num, Aux: re,
	})
	if !r.orgSeen[org][b.Num] {
		r.orgSeen[org][b.Num] = true
		if !r.seen[b.Num] {
			r.seen[b.Num] = true
			r.injected++
		}
	}
}

// instrument installs the measurement hooks on a (possibly restarted) core.
// It runs during NewNetwork, before r.net is assigned, so the callbacks
// resolve the engine lazily.
func (r *runner) instrument(i int, core *gossip.Core) {
	org := r.top.OrgOf(i)
	core.OnCommit(func(b *ledger.Block) {
		if int64(b.Num) != r.lastCommit[i]+1 {
			r.orderViolations[org]++
		}
		r.lastCommit[i] = int64(b.Num)
		if r.traceAll {
			r.emitOrg(org, obs.Event{
				At: r.net.EngineFor(i).Now(), Kind: obs.EvBlockCommit,
				Node: int32(i), Peer: -1, Num: b.Num, Aux: uint64(len(b.Txs)),
			})
		}
		if r.recovering[i] && b.Num+1 >= uint64(r.injected) {
			now := r.net.EngineFor(i).Now()
			lat := now - r.restartAt[i]
			r.orgRecs[org].Record(lat)
			r.recovering[i] = false
			r.emitOrg(org, obs.Event{
				At: now, Kind: obs.EvCaughtUp,
				Node: int32(i), Peer: -1, Num: b.Num + 1, Aux: uint64(lat),
			})
		}
	})
	core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
		start, ok := r.orgStart[org][b.Num]
		if !ok {
			r.orgStart[org][b.Num] = at
			return
		}
		// Catch-up receptions after a restart measure recovery, not the
		// epidemic; keep them out of the dissemination distribution.
		if !r.recovering[i] && at >= start {
			r.lat.Record(org, b.Num, wire.NodeID(i), at-start)
		}
	})
	core.OnPeerStateChange(func(p wire.NodeID, live bool, at time.Duration) {
		r.transitions[org]++
		if r.traceAll {
			var alive uint64
			if live {
				alive = 1
			}
			r.emitOrg(org, obs.Event{
				At: at, Kind: obs.EvMembership,
				Node: int32(i), Peer: int32(p), Num: alive,
			})
		}
	})
}

func (r *runner) crash(i int) {
	if r.net.Crashed(i) {
		return
	}
	r.net.Crash(i)
	r.recovering[i] = false
}

func (r *runner) restart(i int) {
	if !r.net.Crashed(i) {
		return
	}
	// The fresh core commits from zero again; reset the per-peer ordering
	// and recovery trackers before its hooks fire.
	r.lastCommit[i] = -1
	r.restartAt[i] = r.net.Engine.Now()
	r.recovering[i] = r.injected > 0
	r.net.Restart(i)
}

// partition cuts peers [0, split) plus the ordering service (the orderer,
// or every consenter) from peers [split, n). Range validation happened in
// Run. Workload clients are not listed, so they land in group 0 with the
// ordering service (transport semantics): submissions keep flowing, but
// endorsement against peers on the far side fails.
func (r *runner) partition(split int) {
	sideA := make([]wire.NodeID, 0, split+1)
	for i := 0; i < split; i++ {
		sideA = append(sideA, wire.NodeID(i))
	}
	sideA = append(sideA, r.net.OrderingNodeIDs()...)
	sideB := make([]wire.NodeID, 0, r.top.Total()-split)
	for i := split; i < r.top.Total(); i++ {
		sideB = append(sideB, wire.NodeID(i))
	}
	r.net.Net.Partition(sideA, sideB)
}

// isolateOrgs partitions each listed organization into its own group; the
// remaining organizations and the orderer form the main group. With a
// workload plane, an organization's clients are cut off with it (they sit
// on the organization's site), so an isolated organization's submissions
// fail as SubmitErrors instead of silently reaching the orderer.
func (r *runner) isolateOrgs(orgs []int) {
	cut := make(map[int]bool, len(orgs))
	for _, o := range orgs {
		cut[o] = true
	}
	main := make([]wire.NodeID, 0, r.top.Total()+1)
	groups := make([][]wire.NodeID, 1, len(orgs)+1)
	for o := 0; o < r.top.Orgs(); o++ {
		ids := make([]wire.NodeID, 0, r.top.Size(o))
		for _, i := range r.top.OrgSpan(o) {
			ids = append(ids, wire.NodeID(i))
		}
		if r.plane != nil {
			ids = append(ids, r.plane.ClientNodes(o)...)
		}
		if cut[o] {
			groups = append(groups, ids)
		} else {
			main = append(main, ids...)
		}
	}
	main = append(main, r.net.OrderingNodeIDs()...)
	groups[0] = main
	r.net.Net.Partition(groups...)
}

// isolateConsenters cuts the listed consenters (one group, together) from
// everything else: the remaining consenters, every peer, and every
// workload client stay in the main group.
func (r *runner) isolateConsenters(idxs []int) {
	cut := make(map[int]bool, len(idxs))
	isolated := make([]wire.NodeID, 0, len(idxs))
	for _, c := range idxs {
		if !cut[c] {
			cut[c] = true
			isolated = append(isolated, r.net.ConsenterID(c))
		}
	}
	main := make([]wire.NodeID, 0, r.top.Total())
	for i := 0; i < r.top.Total(); i++ {
		main = append(main, wire.NodeID(i))
	}
	for c := 0; c < r.net.Consenters(); c++ {
		if !cut[c] {
			main = append(main, r.net.ConsenterID(c))
		}
	}
	if r.plane != nil {
		for o := 0; o < r.top.Orgs(); o++ {
			main = append(main, r.plane.ClientNodes(o)...)
		}
	}
	r.net.Net.Partition(main, isolated)
}

// viewSampleInterval is the membership sampler's period.
const viewSampleInterval = 500 * time.Millisecond

// heapSampleInterval throttles heap high-water sampling: barriers fire every
// few simulated milliseconds at 100k scale, and a ReadMemStats per barrier
// would dominate wall time.
const heapSampleInterval = 500 * time.Millisecond

// sampleHeap records the heap high-water mark, at most once per
// heapSampleInterval of simulated time. It reads wall-side runtime state
// only — no random draws, no sends, no events — so it cannot perturb the
// simulation it measures.
func (r *runner) sampleHeap() {
	now := r.net.Engine.Now()
	if r.heapSampled && now-r.lastHeapAt < heapSampleInterval {
		return
	}
	r.heapSampled = true
	r.lastHeapAt = now
	r.sampleHeapNow()
}

// sampleHeapNow is sampleHeap without the throttle (the run-end sample).
func (r *runner) sampleHeapNow() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > r.heapHigh {
		r.heapHigh = m.HeapAlloc
	}
}

// sampleViews takes one membership measurement (MeasureMembership only):
// the mean view completeness over live peers — each peer's live view
// intersected with its organization's actually live members — and whether
// every live peer currently agrees on its organization's true leader. The
// streak-tracking behind convergedAt makes LeaderConvergence "the last
// time somebody still disagreed" rather than the first lucky agreement.
func (r *runner) sampleViews() {
	now := r.net.Engine.Now()
	if now < r.sc.Warmup {
		return // let the initial heartbeat view form first
	}
	var complSum float64
	var complN int
	agree := true
	for o := 0; o < r.top.Orgs(); o++ {
		// The ground truth: the organization's actually live (non-crashed)
		// members and its true leader, from the fault surface.
		r.actualBuf = r.actualBuf[:0]
		for _, i := range r.top.OrgSpan(o) {
			if !r.net.Crashed(i) {
				r.actualBuf = append(r.actualBuf, wire.NodeID(i))
			}
		}
		if len(r.actualBuf) == 0 {
			continue
		}
		trueLeader := wire.NodeID(r.net.OrgLeader(o))
		for _, i := range r.top.OrgSpan(o) {
			if r.net.Crashed(i) {
				continue
			}
			core := r.net.Cores[i]
			r.liveBuf = core.LivePeersInto(r.liveBuf)
			// Both slices are sorted ascending: count the intersection
			// with one merge pass. Entries outside the organization (none
			// today: views are per-org) fall out naturally.
			inter, a := 0, 0
			for _, p := range r.liveBuf {
				for a < len(r.actualBuf) && r.actualBuf[a] < p {
					a++
				}
				if a < len(r.actualBuf) && r.actualBuf[a] == p {
					inter++
					a++
				}
			}
			complSum += float64(inter) / float64(len(r.actualBuf))
			complN++
			if core.LeaderPeer() != trueLeader {
				agree = false
			}
		}
	}
	if complN == 0 {
		return
	}
	r.viewSamples++
	r.lastCompl = complSum / float64(complN)
	if !agree {
		r.convergedAt = -1
	} else if r.convergedAt < 0 {
		r.convergedAt = now
	}
}

// emitOrg/emitOrd/emitCtl append one structured event to the buffer of
// the emission context that owns the caller: an organization's shard, the
// ordering shard, or the control plane. Callers of high-volume kinds guard
// with r.traceAll so a bare run's hot path pays only that check.
func (r *runner) emitOrg(org int, e obs.Event) {
	r.tracer.Shards[r.net.OrgObsContext(org)].Emit(e)
}

func (r *runner) emitOrd(e obs.Event) {
	r.tracer.Shards[r.net.OrdObsContext()].Emit(e)
}

func (r *runner) emitCtl(e obs.Event) {
	r.tracer.Shards[r.net.CtlObsContext()].Emit(e)
}

// renderTrace renders Report.Trace from the tracer's pinned events, which
// arrive in the run's total (time, context, emission order). An ordering-
// service delivery is traced the first time its block reaches an
// organization, and again only as an explicit redelivery.
func (r *runner) renderTrace() []string {
	events := r.tracer.Pinned()
	out := make([]string, 0, len(events))
	type orgBlock struct {
		org int32
		num uint64
	}
	delivered := make(map[orgBlock]bool)
	for _, e := range events {
		var line string
		switch e.Kind {
		case obs.EvInitialDown:
			line = fmt.Sprintf("start with peers %s down", rangeSpec(r.sc.InitialDown))
		case obs.EvFault:
			line = r.sc.Events[e.Num].Action.String()
		case obs.EvConsenterLeader:
			line = fmt.Sprintf("consenter leader is %d", e.Node)
		case obs.EvElection:
			line = fmt.Sprintf("consenter %d elected leader (term %d)", e.Node, e.Num)
		case obs.EvCaughtUp:
			line = fmt.Sprintf("peer %d caught up to height %d, %v after restart", e.Node, e.Num, time.Duration(e.Aux))
		case obs.EvDeliver:
			verb := "deliver"
			if key := (orgBlock{e.Peer, e.Num}); !delivered[key] {
				delivered[key] = true
			} else if e.Aux == 1 {
				verb = "redeliver"
			} else {
				continue
			}
			if r.top.Orgs() == 1 {
				line = fmt.Sprintf("%s block %d -> peer %d", verb, e.Num, e.Node)
			} else {
				line = fmt.Sprintf("%s block %d -> org %d peer %d", verb, e.Num, e.Peer, e.Node)
			}
		}
		out = append(out, fmt.Sprintf("[%10v] %s", e.At, line))
	}
	return out
}

// report assembles the final Report after the engine has drained.
func (r *runner) report(blocks []*ledger.Block) *Report {
	tv := r.net.TrafficView()
	var barrierFull, barrierElided uint64
	if se := r.net.Sharded(); se != nil {
		barrierFull, barrierElided = se.BarrierStats()
	}
	var transitions, violations int
	var recAll []time.Duration
	for o := 0; o < r.top.Orgs(); o++ {
		transitions += r.transitions[o]
		violations += r.orderViolations[o]
		recAll = append(recAll, r.orgRecs[o].Samples()...)
	}
	rep := &Report{
		Scenario:       r.sc.Name,
		Variant:        string(r.opt.Variant),
		Peers:          r.top.Total(),
		Orgs:           r.top.Orgs(),
		Seed:           r.opt.Seed,
		Sharded:        r.sharded,
		BlocksInjected: r.injected,
		Transitions:    transitions,
		EngineEvents:   r.net.ExecutedEvents(),
		PeakPending:    r.net.PeakPending(),
		HeapHighWater:  r.heapHigh,
		BarrierFull:    barrierFull,
		BarrierElided:  barrierElided,
		TotalBytes:     tv.TotalBytes(),
		SyncBytes: tv.BytesOf(wire.TypeStateRequest) +
			tv.BytesOf(wire.TypeStateResponse),
		SyncMessages: tv.CountOf(wire.TypeStateRequest) +
			tv.CountOf(wire.TypeStateResponse),
		Recoveries: metrics.SummarizeSamples(recAll),
		Latency:    r.lat.SummarizeAll(),
		Trace:      r.renderTrace(),
	}
	if r.viewSamples > 0 {
		rep.ViewSamples = r.viewSamples
		rep.ViewCompleteness = r.lastCompl
		if r.convergedAt >= 0 {
			rep.LeaderConvergence = r.convergedAt
		} else {
			rep.LeaderConvergence = r.sc.End() // never converged
		}
	}
	var blockBytes int
	if len(blocks) > 0 {
		blockBytes = wire.BlockEncodedSize(blocks[0])
		rep.BlockBytes = blockBytes
	}
	for o := 0; o < r.top.Orgs(); o++ {
		or := OrgReport{
			Org:       o,
			Variant:   string(r.net.Orgs[o].Variant),
			Peers:     r.top.Size(o),
			Delivered: len(r.orgSeen[o]),
			Recovery:  metrics.Summarize(r.orgRecs[o].Distribution()),
			Latency:   r.lat.SummarizeGroup(o),
		}
		var inBytes uint64
		for _, i := range r.top.OrgSpan(o) {
			in, _ := tv.NodeTotals(wire.NodeID(i))
			inBytes += in
			if r.net.Crashed(i) {
				continue
			}
			or.Survivors++
			if r.lastCommit[i] == int64(r.injected)-1 {
				or.CaughtUp++
			}
			if r.recovering[i] {
				or.PendingRecoveries++
			}
		}
		or.InBytes = inBytes
		// Per-org overhead relates bytes entering the organization's NICs
		// to the ideal minimum of every delivered block reaching each
		// member exactly once (the leader's copy arrives from the orderer).
		or.Overhead = metrics.OverheadRatio(inBytes, blockBytes, r.top.Size(o), or.Delivered)
		rep.Survivors += or.Survivors
		rep.CaughtUp += or.CaughtUp
		rep.PendingRecoveries += or.PendingRecoveries
		rep.OrgReports = append(rep.OrgReports, or)
	}
	if k := r.net.Consenters(); k > 0 {
		rep.Consenters = k
		rep.Elections, rep.Leaderless = r.net.ElectionStats()
		rep.DeliverGap = r.net.MaxDeliverGap()
		for _, c := range r.net.Cores {
			rep.AnchorProbes += c.StateSyncStats().AnchorProbes
		}
	}
	if r.plane != nil {
		w := r.plane.Stats()
		rep.Workload = &w
	}
	rep.OrderViolations = violations
	if blockBytes > 0 {
		// Same definition of "ideal" as the per-org lines: every peer —
		// leaders included, their copy arrives from the orderer and is in
		// TotalBytes — receives each injected block exactly once.
		rep.Overhead = metrics.OverheadRatio(rep.TotalBytes, blockBytes, r.top.Total(), r.injected)
	}
	rep.Obs = r.buildObs(rep)
	if r.opt.Trace {
		rep.Events = r.tracer.Merged()
	}
	rep.Series = r.series
	rep.FlightDump = r.flightDump
	return rep
}

// buildObs assembles the report-time metrics snapshot: the shard-local
// registries merged (wire-level instruments), then every scattered report
// counter re-registered under one namespace so downstream consumers read
// a single inventory instead of scraping Report fields.
func (r *runner) buildObs(rep *Report) *obs.Snapshot {
	reg := obs.NewRegistry()
	for _, lr := range r.obsRegs {
		reg.Merge(lr)
	}
	reg.Counter("engine_events_total").Add(rep.EngineEvents)
	reg.Gauge("peak_pending_events").Set(int64(rep.PeakPending))
	reg.Gauge("heap_high_water_bytes").Set(int64(rep.HeapHighWater))
	reg.Counter("barriers_total", "kind", "full").Add(rep.BarrierFull)
	reg.Counter("barriers_total", "kind", "elided").Add(rep.BarrierElided)
	reg.Counter("traffic_bytes_total").Add(rep.TotalBytes)
	reg.Counter("state_sync_bytes_total").Add(rep.SyncBytes)
	reg.Counter("state_sync_msgs_total").Add(rep.SyncMessages)
	reg.Counter("blocks_injected_total").Add(uint64(rep.BlocksInjected))
	reg.Counter("membership_transitions_total").Add(uint64(rep.Transitions))
	reg.Counter("order_violations_total").Add(uint64(rep.OrderViolations))
	// Pool leak canaries: pooled envelopes still outstanding at End —
	// in-flight deliveries the post-report drain settles. The audit in
	// checkPoolLeaks asserts these reach zero after the drain.
	data, digest := r.poolOutstanding()
	reg.Gauge("pool_outstanding", "pool", "data").Set(int64(data))
	reg.Gauge("pool_outstanding", "pool", "push_digest").Set(int64(digest))
	if r.traceAll {
		reg.Counter("trace_events_total").Add(r.tracer.Total())
	}
	if rep.Consenters > 0 {
		reg.Counter("elections_total").Add(uint64(rep.Elections))
		reg.Gauge("leaderless_ns").Set(int64(rep.Leaderless))
	}
	if w := rep.Workload; w != nil {
		reg.Counter("workload_tx_total", "outcome", "submitted").Add(uint64(w.Submitted))
		reg.Counter("workload_tx_total", "outcome", "committed").Add(uint64(w.Committed))
		reg.Counter("workload_tx_total", "outcome", "conflict").Add(uint64(w.Conflicts))
		reg.Counter("workload_tx_total", "outcome", "retry").Add(uint64(w.Retries))
		reg.Counter("workload_blocks_cut_total", "cause", "size").Add(w.CutBySize)
		reg.Counter("workload_blocks_cut_total", "cause", "timeout").Add(w.CutByTimeout)
	}
	return reg.Snapshot()
}
