package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// cpuBuckets are the per-module CPU buckets of the traced run, in report
// order. Each profile sample lands in exactly one, so they sum to
// cpu.profiled_s.
var cpuBuckets = []string{
	"sim", "gossip", "gossip_enhanced", "gossip_original", "transport", "netmodel", "wire",
	"membership", "statesync", "crypto", "endorse", "ledger", "peer", "msp", "raft", "order",
	"workload", "client", "chaincode", "scenario", "harness", "obs", "metrics", "analysis",
	// gc: background GC workers; runtime: other stacks with no module
	// frame; bench: this benchmark's own code; other: an internal package
	// not listed above.
	"gc", "runtime", "bench", "other",
}

var wireClasses = []string{"gossip", "digest", "member", "sync", "raft", "order"}

// layers is the traced run: untraced and CPU-profiled repetitions in
// pairs, then one run with Options.Trace and the retained-heap probe. All
// runs use --seed and must agree on the fingerprint.
func (b *bench) layers() *result {
	var runs, profiled []sample
	var profiles []string
	for i := 0; i < 1 || time.Since(b.start) < b.budget/2; i++ {
		runs = append(runs, b.spawn(modeRun, i, b.seed))
		path := filepath.Join(b.outDir, fmt.Sprintf("cpu-%s-seed%d-%d.pprof", b.w.name, b.seed, i))
		p := b.spawn(modeProfile, i, b.seed, "-profile-out", path)
		profiled = append(profiled, p)
		if p.Err == "" {
			profiles = append(profiles, path)
		}
	}
	traced := b.spawn(modeTraced, 0, b.seed)
	retained := b.spawn(modeRetained, 0, b.seed)

	from := time.Now()
	v := b.check(append(append(slices.Clone(runs), profiled...), traced))
	fail := func(err string) {
		v.attempted++
		v.failed++
		v.problems = append(v.problems, err)
	}
	if retained.Err != "" || len(retained.Retained) != 2 {
		fail("retained-heap probe: " + retained.Err)
	}
	if traced.Err == "" && traced.Trace == nil {
		fail("traced run returned no trace")
	}
	cpu, err := attributeProfiles(profiles)
	if err != nil {
		fail(err.Error())
	}
	b.record(-1, "check", "", from, time.Now())

	res := newResult(v)
	ok := okSamples(runs)
	okProf := okSamples(profiled)
	if len(ok) == 0 || len(okProf) == 0 || traced.Trace == nil || len(retained.Retained) != 2 {
		res.Correct = false
		return res
	}
	s := ok[0]
	runS := median(field(ok, func(s sample) float64 { return s.RunS }))
	cpuS := median(field(ok, func(s sample) float64 { return s.CPUS }))

	var total float64
	for _, k := range cpuBuckets {
		total += cpu[k]
	}
	res.add("cpu.profiled_s", total, "s")
	for _, k := range cpuBuckets {
		res.add("cpu."+k+"_s", cpu[k], "s")
	}

	res.add("sim.events", float64(s.Events), "count")
	res.add("sim.events_per_s", float64(s.Events)/runS, "1/s")
	res.add("sim.peak_pending", float64(s.PeakPending), "count")
	res.add("sim.barriers_full", float64(s.BarrierFull), "count")
	res.add("sim.barrier_elided_ratio", ratio(float64(s.BarrierElided), float64(s.BarrierFull+s.BarrierElided)), "ratio")
	res.add("sim.parallel_eff", cpuS/(runS*float64(s.MaxProcs)), "ratio")

	t := traced.Trace
	res.add("gossip.dup_ratio", ratio(float64(t.GossipRecv), float64(s.FirstReceipts)), "ratio")
	res.add("transport.msgs_out", float64(t.MsgsOut), "count")
	res.add("transport.delivered_ratio", ratio(float64(t.MsgsIn), float64(t.MsgsOut)), "ratio")
	for _, c := range wireClasses {
		res.add("wire."+c+"_msgs", float64(t.ClassMsgs[c]), "count")
		res.add("wire."+c+"_mb", float64(t.ClassBytes[c])/1e6, "MB")
	}
	res.add("wire.retained_mb_per_run", retained.Retained[1]-retained.Retained[0], "MB")

	res.add("membership.transitions", float64(s.Transitions), "count")
	res.add("statesync.msgs", float64(s.SyncMsgs), "count")
	res.add("statesync.mb", float64(s.SyncBytes)/1e6, "MB")
	res.add("raft.elections", float64(s.Elections), "count")
	res.add("order.blocks_cut", float64(s.BlocksCut), "count")
	res.add("order.tx_per_block", ratio(float64(s.OrderedTx), float64(s.BlocksCut)), "tx/block")
	res.add("workload.retries", float64(s.Retries), "count")
	res.add("workload.useful_ratio", ratio(float64(s.Committed), float64(s.Submitted)), "ratio")

	res.add("gc.cycles", median(field(ok, func(s sample) float64 { return float64(s.GCCycles) })), "count")
	res.add("gc.alloc_mb", median(field(ok, func(s sample) float64 { return s.GCAllocMB })), "MB")
	res.add("gc.pause_ms", median(field(ok, func(s sample) float64 { return s.GCPauseMs })), "ms")

	res.add("stage.cut_to_deliver_p50_ms", t.CutToDeliver[0], "ms")
	res.add("stage.cut_to_deliver_max_ms", t.CutToDeliver[1], "ms")
	res.add("stage.deliver_to_first_commit_p50_ms", t.DeliverToFirstCmt[0], "ms")
	res.add("stage.deliver_to_first_commit_max_ms", t.DeliverToFirstCmt[1], "ms")
	res.add("stage.deliver_to_last_commit_p50_ms", t.DeliverToLastCmt[0], "ms")
	res.add("stage.deliver_to_last_commit_max_ms", t.DeliverToLastCmt[1], "ms")

	res.add("trace.peak_rss_mb", traced.PeakRSSMB, "MB")
	profS := median(field(okProf, func(s sample) float64 { return s.RunS }))
	res.add("trace.overhead_pct", (profS/runS-1)*100, "%")

	res.add("recovery_p50_ms", s.RecoveryP50Ms, "ms")
	res.add("recovery_p99_ms", s.RecoveryP99Ms, "ms")
	res.add("tx_p50_ms", s.TxP50Ms, "ms")
	res.add("tx_p99_ms", s.TxP99Ms, "ms")
	res.add("tx_invalid_rate", invalidRate(s), "ratio")

	res.note("%d untraced + %d profiled runs, 1 traced run (%d trace events), seed %d, fingerprint %.16s",
		len(runs), len(profiled), t.Events, b.seed, s.Fingerprint)
	res.note("samples: block latency n=%d, recovery n=%d, tx n=%d", s.BlockN, s.RecoveryN, s.TxN)
	res.note("retained-heap probe: live heap %.2f MB after run 1, %.2f MB after run 2", retained.Retained[0], retained.Retained[1])
	res.note("per-module CPU is the mean over %d profiles; the buckets sum to cpu.profiled_s", len(profiles))
	res.note("failed_frac %.6f (%d of %d operations)", res.failedFrac(), res.Failed, res.Attempted)
	return res
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// attributeProfiles charges every CPU sample of the given profiles to one
// bucket and returns the mean seconds per profile for each bucket.
func attributeProfiles(paths []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, p := range paths {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", p).Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -traces %s: %w", p, err)
		}
		one, err := parseTraces(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for k, v := range one {
			sum[k] += v
		}
	}
	for k := range sum {
		sum[k] /= float64(len(paths))
	}
	return sum, nil
}

// parseTraces reads `go tool pprof -traces` output: a header naming the
// total, then samples separated by dashed rules, each a value followed by
// its stack, innermost frame first. It fails unless the buckets add up to
// the header's total.
func parseTraces(out []byte) (map[string]float64, error) {
	by := map[string]float64{}
	var value, sum, total time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			by[bucketOf(stack)] += value.Seconds()
			sum += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if _, t, ok := strings.Cut(line, "Total samples = "); ok && !inSamples {
			d, err := time.ParseDuration(strings.Fields(t)[0])
			if err != nil {
				return nil, fmt.Errorf("bad header %q: %w", line, err)
			}
			total = d
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		// A sample starts with its value; frame lines hold only a function
		// name (plus "(inline)"), which never starts with a digit.
		fields := strings.Fields(line)
		if startsWithDigit(fields[0]) {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("bad sample line %q: %w", line, err)
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The header prints the total rounded to three significant digits.
	if diff := sum - total; diff > total/100 || -diff > total/100 {
		return nil, fmt.Errorf("samples add up to %v, header says %v", sum, total)
	}
	return by, nil
}

func startsWithDigit(s string) bool { return s != "" && s[0] >= '0' && s[0] <= '9' }

// bucketOf charges a stack to the innermost fabricgossip/internal module
// frame; standard-library frames roll up to their caller. Stacks with no
// module frame go to gc (background GC workers), bench (this benchmark's
// main package) or runtime.
func bucketOf(stack []string) string {
	const prefix = "fabricgossip/internal/"
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			key := strings.ReplaceAll(pkg, "/", "_")
			if slices.Contains(cpuBuckets, key) {
				return key
			}
			return "other"
		}
	}
	for _, f := range stack {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}
