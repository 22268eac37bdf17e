package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/scenario"
)

// Child modes: each repetition runs in a fresh process of this binary, so
// peak RSS, GC counters and heap state are per run.
const (
	modeSetup    = "setup"    // time one set-up probe
	modeRun      = "run"      // one untraced scenario.Run
	modeProfile  = "profile"  // one run under the CPU profiler
	modeTraced   = "traced"   // one run with Options.Trace
	modeRetained = "retained" // two back-to-back runs, live heap after each
)

// sample is what one child process reports back on its standard output.
type sample struct {
	Err         string `json:"err,omitempty"`
	Seed        int64  `json:"seed"`
	Fingerprint string `json:"fingerprint,omitempty"`

	SetupS    float64 `json:"setup_s,omitempty"`
	RunS      float64 `json:"run_s,omitempty"`
	CPUS      float64 `json:"cpu_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`

	// Correctness-gate inputs.
	Survivors         int `json:"survivors"`
	CaughtUp          int `json:"caught_up"`
	OrderViolations   int `json:"order_violations"`
	PendingRecoveries int `json:"pending_recoveries"`
	Submitted         int `json:"submitted"`
	Committed         int `json:"committed"`
	Conflicts         int `json:"conflicts"`
	TxErrors          int `json:"tx_errors"`

	// Modeled (simulated-time) outcomes.
	Peers         int     `json:"peers"`
	Blocks        int     `json:"blocks"`
	TotalBytes    uint64  `json:"total_bytes"`
	BlockN        int     `json:"block_n"`
	BlockP50Ms    float64 `json:"block_p50_ms"`
	BlockP999Ms   float64 `json:"block_p999_ms"`
	RecoveryN     int     `json:"recovery_n"`
	RecoveryP50Ms float64 `json:"recovery_p50_ms"`
	RecoveryP99Ms float64 `json:"recovery_p99_ms"`
	TxN           int     `json:"tx_n"`
	TxP50Ms       float64 `json:"tx_p50_ms"`
	TxP99Ms       float64 `json:"tx_p99_ms"`
	FirstReceipts int     `json:"first_receipts"`

	// Executor and per-layer counters.
	Events        uint64  `json:"events"`
	PeakPending   int     `json:"peak_pending"`
	BarrierFull   uint64  `json:"barrier_full"`
	BarrierElided uint64  `json:"barrier_elided"`
	Transitions   int     `json:"transitions"`
	SyncMsgs      uint64  `json:"sync_msgs"`
	SyncBytes     uint64  `json:"sync_bytes"`
	Elections     int     `json:"elections"`
	BlocksCut     uint64  `json:"blocks_cut"`
	OrderedTx     uint64  `json:"ordered_tx"`
	Retries       int     `json:"retries"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCAllocMB     float64 `json:"gc_alloc_mb"`
	GCPauseMs     float64 `json:"gc_pause_ms"`
	MaxProcs      int     `json:"gomaxprocs"`

	Trace    *traceStats `json:"trace,omitempty"`
	Retained []float64   `json:"retained_mb,omitempty"`
}

// runChild executes one child mode and prints its sample as JSON. A failed
// run is reported in the sample, not by exit code, so the parent can count
// it against the attempted operations.
func runChild(mode string, w benchWorkload, seed int64, profPath string) {
	s, err := childSample(mode, w, seed, profPath)
	if err != nil {
		s = sample{Err: err.Error()}
	}
	s.Seed = seed
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		os.Exit(1)
	}
}

func childSample(mode string, w benchWorkload, seed int64, profPath string) (sample, error) {
	sc, opt, err := w.build(seed)
	if err != nil {
		return sample{}, err
	}
	switch mode {
	case modeSetup:
		start := time.Now()
		if _, err := scenario.Run(setupProbe(sc), opt); err != nil {
			return sample{}, fmt.Errorf("setup probe: %w", err)
		}
		return sample{SetupS: time.Since(start).Seconds()}, nil
	case modeRun:
		return measuredRun(sc, opt, nil)
	case modeProfile:
		f, err := os.Create(profPath)
		if err != nil {
			return sample{}, err
		}
		defer f.Close()
		s, err := measuredRun(sc, opt, f)
		if err != nil {
			return sample{}, err
		}
		return s, f.Close()
	case modeTraced:
		// The merged event stream of a sharded 10k-peer run is gigabytes
		// live; collect often so the process holds little beyond it.
		debug.SetGCPercent(10)
		opt.Trace = true
		return measuredRun(sc, opt, nil)
	case modeRetained:
		mb, err := retainedProbe(opt.Variant)
		return sample{Retained: mb}, err
	}
	return sample{}, fmt.Errorf("unknown child mode %q", mode)
}

// measuredRun times one scenario.Run from outside: wall clock, process
// CPU, peak RSS and GC counters, optionally under the CPU profiler.
func measuredRun(sc scenario.Scenario, opt scenario.Options, prof *os.File) (sample, error) {
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return sample{}, err
	}
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return sample{}, err
		}
	}
	start := time.Now()
	rep, err := scenario.Run(sc, opt)
	wall := time.Since(start).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return sample{}, err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&ms1)
	s := sample{
		Fingerprint:       rep.Fingerprint(),
		RunS:              wall,
		CPUS:              cpuSeconds(ru1) - cpuSeconds(ru0),
		PeakRSSMB:         float64(ru1.Maxrss) / 1024, // Linux reports KiB
		Survivors:         rep.Survivors,
		CaughtUp:          rep.CaughtUp,
		OrderViolations:   rep.OrderViolations,
		PendingRecoveries: rep.PendingRecoveries,
		Peers:             rep.Peers,
		Blocks:            rep.BlocksInjected,
		TotalBytes:        rep.TotalBytes,
		BlockN:            rep.Latency.N,
		BlockP50Ms:        ms(rep.Latency.P50),
		BlockP999Ms:       ms(rep.Latency.P999),
		RecoveryN:         rep.Recoveries.N,
		RecoveryP50Ms:     ms(rep.Recoveries.P50),
		RecoveryP99Ms:     ms(rep.Recoveries.P99),
		Events:            rep.EngineEvents,
		PeakPending:       rep.PeakPending,
		BarrierFull:       rep.BarrierFull,
		BarrierElided:     rep.BarrierElided,
		Transitions:       rep.Transitions,
		SyncMsgs:          rep.SyncMessages,
		SyncBytes:         rep.SyncBytes,
		Elections:         rep.Elections,
		GCCycles:          ms1.NumGC - ms0.NumGC,
		GCAllocMB:         float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		GCPauseMs:         float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		MaxProcs:          runtime.GOMAXPROCS(0),
	}
	// Every org's first reception of a block is its entry point, not a
	// latency sample; together with the samples they are the first receipts.
	s.FirstReceipts = rep.Latency.N
	for _, or := range rep.OrgReports {
		s.FirstReceipts += or.Delivered
	}
	if wl := rep.Workload; wl != nil {
		s.Submitted = wl.Submitted
		s.Committed = wl.Committed
		s.Conflicts = wl.Conflicts
		s.TxErrors = wl.ProposalConflicts + wl.EndorseErrors + wl.SubmitErrors + int(wl.CommitErrors)
		s.TxN = wl.Latency.N
		s.TxP50Ms = ms(wl.Latency.P50)
		s.TxP99Ms = ms(wl.Latency.P99)
		s.BlocksCut = wl.BlocksCut
		s.OrderedTx = wl.OrderedTx
		s.Retries = wl.Retries
	}
	if opt.Trace {
		s.Trace = summarizeTrace(rep.Events)
	}
	return s, nil
}

// retainedProbe runs one small dissemination scenario (1 org x 1000 peers x
// 40 blocks) twice back to back in this process and returns the live heap,
// in MB, after a forced GC following each run. A run that frees everything
// it allocated leaves the two readings equal.
func retainedProbe(variant harness.Variant) ([]float64, error) {
	sc := scenario.Scenario{
		Name:          "retained-probe",
		Blocks:        40,
		BlockInterval: 250 * time.Millisecond,
		Warmup:        time.Second,
		Tail:          10 * time.Second,
	}
	opt := scenario.Options{Peers: 1000, Orgs: 1, Variant: variant, Seed: 1}
	var out []float64
	for i := 0; i < 2; i++ {
		if _, err := scenario.Run(sc, opt); err != nil {
			return nil, fmt.Errorf("retained probe run %d: %w", i, err)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		out = append(out, float64(m.HeapAlloc)/1e6)
	}
	return out, nil
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceStats is what the benchmark derives from a traced run's typed event
// stream: per-class wire volume, dissemination redundancy and the modeled
// pipeline stage splits.
type traceStats struct {
	// ClassMsgs/ClassBytes count sends per trace class (gossip, digest,
	// member, sync, raft, order).
	ClassMsgs  map[string]uint64 `json:"class_msgs"`
	ClassBytes map[string]uint64 `json:"class_bytes"`
	MsgsOut    uint64            `json:"msgs_out"`
	MsgsIn     uint64            `json:"msgs_in"`
	GossipRecv uint64            `json:"gossip_recv"`
	// Stage splits over blocks, in simulated milliseconds: p50 and max of
	// cut->first deliver, first deliver->first commit, first deliver->last
	// commit. Blocks of a premade chain have no cut event.
	CutToDeliver      [2]float64 `json:"cut_to_deliver_ms"`
	DeliverToFirstCmt [2]float64 `json:"deliver_to_first_commit_ms"`
	DeliverToLastCmt  [2]float64 `json:"deliver_to_last_commit_ms"`
	Events            int        `json:"trace_events"`
}

var sendClass = map[obs.EventKind]string{
	obs.EvGossipSend: "gossip",
	obs.EvDigestSend: "digest",
	obs.EvMemberSend: "member",
	obs.EvSyncSend:   "sync",
	obs.EvRaftSend:   "raft",
	obs.EvOrderSend:  "order",
}

func summarizeTrace(events []obs.Event) *traceStats {
	t := &traceStats{ClassMsgs: map[string]uint64{}, ClassBytes: map[string]uint64{}, Events: len(events)}
	type blockTimes struct{ cut, deliver, first, last time.Duration }
	blocks := map[uint64]*blockTimes{}
	get := func(num uint64) *blockTimes {
		b := blocks[num]
		if b == nil {
			b = &blockTimes{cut: -1, deliver: -1, first: -1, last: -1}
			blocks[num] = b
		}
		return b
	}
	for _, e := range events {
		if c, ok := sendClass[e.Kind]; ok {
			t.ClassMsgs[c]++
			t.ClassBytes[c] += e.Aux
			t.MsgsOut++
			continue
		}
		switch e.Kind {
		case obs.EvGossipRecv:
			t.GossipRecv++
			t.MsgsIn++
		case obs.EvDigestRecv, obs.EvMemberRecv, obs.EvSyncRecv, obs.EvRaftRecv, obs.EvOrderRecv:
			t.MsgsIn++
		case obs.EvBlockCut:
			if b := get(e.Num); b.cut < 0 {
				b.cut = e.At
			}
		case obs.EvDeliver:
			if b := get(e.Num); b.deliver < 0 {
				b.deliver = e.At
			}
		case obs.EvBlockCommit:
			b := get(e.Num)
			if b.first < 0 {
				b.first = e.At
			}
			b.last = max(b.last, e.At)
		}
	}
	var cut, first, last []time.Duration
	for _, b := range blocks {
		if b.deliver < 0 {
			continue
		}
		if b.cut >= 0 {
			cut = append(cut, b.deliver-b.cut)
		}
		if b.first >= 0 {
			first = append(first, b.first-b.deliver)
			last = append(last, b.last-b.deliver)
		}
	}
	t.CutToDeliver = p50Max(cut)
	t.DeliverToFirstCmt = p50Max(first)
	t.DeliverToLastCmt = p50Max(last)
	return t
}
