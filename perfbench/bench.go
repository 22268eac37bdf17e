package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupProbes is how many set-up probes one timed run makes; setup_s
	// is their median.
	setupProbes = 21
	// hardLimit bounds the whole command: a child still running then is
	// killed and counted as failed, so the command always ends in time.
	hardLimit = 170 * time.Second
)

// bench is the parent process: it spawns every repetition as a child,
// gates the samples for correctness and reduces them to metrics.
type bench struct {
	w       benchWorkload
	seed    int64
	budget  time.Duration
	outDir  string
	exe     string
	start   time.Time
	traceOn bool
	spans   []span
}

// span is one benchmark-side phase: a set-up probe, a run, or the check.
// The spans are written out when the command ends.
type span struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Rep      int     `json:"rep"`
	Phase    string  `json:"phase"`
	Mode     string  `json:"mode,omitempty"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
}

func (b *bench) record(rep int, phase, mode string, from, to time.Time) {
	b.spans = append(b.spans, span{
		Workload: b.w.name, Seed: b.seed, Rep: rep, Phase: phase, Mode: mode,
		StartS: from.Sub(b.start).Seconds(), EndS: to.Sub(b.start).Seconds(),
	})
}

func (b *bench) writeSpans() error {
	name := fmt.Sprintf("spans-%s-seed%d-trace%d.jsonl", b.w.name, b.seed, btoi(b.traceOn))
	f, err := os.Create(filepath.Join(b.outDir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spawn runs one child repetition and returns its sample. A child that
// fails to start, crashes or prints garbage yields a sample with Err set.
func (b *bench) spawn(mode string, rep int, seed int64, extra ...string) sample {
	args := append([]string{"-child", mode, "-workload", b.w.name,
		"-seed", strconv.FormatInt(seed, 10)}, extra...)
	ctx, cancel := context.WithDeadline(context.Background(), b.start.Add(hardLimit))
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// A child must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	phase := "run"
	if mode == modeSetup {
		phase = "setup"
	}
	from := time.Now()
	err := cmd.Run()
	b.record(rep, phase, mode, from, time.Now())
	if err != nil {
		return sample{Seed: seed, Err: fmt.Sprintf("child %s %d seed %d: %v: %s",
			mode, rep, seed, err, strings.TrimSpace(stderr.String()))}
	}
	var s sample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return sample{Seed: seed, Err: fmt.Sprintf("child %s %d: bad output: %v", mode, rep, err)}
	}
	return s
}

func (b *bench) run() *result {
	if b.traceOn {
		return b.layers()
	}
	return b.endToEnd()
}

// subSeeds is how many input seeds one timed run covers. Simulated-time
// metrics are deterministic per seed but vary from seed to seed; a run
// reports their median over the sub-seeds --seed selects, so one unlucky
// seed cannot swing the figure. Sub-seed 0 is --seed itself.
const subSeeds = 3

func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_000 }

// endToEnd is the timed run: set-up probes, then repetitions cycling
// through the sub-seeds until the measurement time is spent (at least one
// per sub-seed plus a repeat of the first, so determinism is checked), then
// the correctness gate.
func (b *bench) endToEnd() *result {
	var setups, runs []sample
	for i := 0; i < setupProbes; i++ {
		setups = append(setups, b.spawn(modeSetup, i, b.seed))
	}
	for i := 0; i <= subSeeds || time.Since(b.start) < b.budget; i++ {
		runs = append(runs, b.spawn(modeRun, i, subSeed(b.seed, i%subSeeds)))
	}
	from := time.Now()
	v := b.check(runs)
	for _, s := range setups {
		v.attempted++
		if s.Err != "" {
			v.failed++
			v.problems = append(v.problems, s.Err)
		}
	}
	b.record(-1, "check", "", from, time.Now())

	res := newResult(v)
	ok := okSamples(runs)
	if len(ok) == 0 {
		return res
	}
	// One sample per sub-seed for the simulated-time metrics, which every
	// repetition of that seed reproduces exactly.
	var perSeed []sample
	seen := map[int64]bool{}
	for _, s := range ok {
		if !seen[s.Seed] {
			seen[s.Seed] = true
			perSeed = append(perSeed, s)
		}
	}
	res.add("setup_s", median(field(okSamples(setups), func(s sample) float64 { return s.SetupS })), "s")
	res.add("run_s", median(field(ok, func(s sample) float64 { return s.RunS })), "s")
	res.add("cpu_s", median(field(ok, func(s sample) float64 { return s.CPUS })), "s")
	res.add("peak_rss_mb", median(field(ok, func(s sample) float64 { return s.PeakRSSMB })), "MB")
	res.add("block_p50_ms", median(field(perSeed, func(s sample) float64 { return s.BlockP50Ms })), "ms")
	res.add("block_p999_ms", median(field(perSeed, func(s sample) float64 { return s.BlockP999Ms })), "ms")
	res.add("traffic_kb_per_peer_block", median(field(perSeed, trafficKB)), "KB")

	runS := field(ok, func(s sample) float64 { return s.RunS })
	res.note("repetitions: %d runs over %d seeds (run_s min %.3f max %.3f), %d set-up probes, GOMAXPROCS=%d",
		len(runs), len(perSeed), slices.Min(runS), slices.Max(runS), len(setups), ok[0].MaxProcs)
	for _, s := range perSeed {
		res.note("seed %d: fingerprint %.16s, %d engine events", s.Seed, s.Fingerprint, s.Events)
		res.note("  block_p50_ms %.3f block_p999_ms %.3f (n=%d) traffic_kb_per_peer_block %.4f",
			s.BlockP50Ms, s.BlockP999Ms, s.BlockN, trafficKB(s))
		if s.RecoveryN > 0 {
			res.note("  recovery_p50_ms %.1f recovery_p99_ms %.1f (n=%d)", s.RecoveryP50Ms, s.RecoveryP99Ms, s.RecoveryN)
		}
		if s.TxN > 0 {
			res.note("  tx_p50_ms %.1f tx_p99_ms %.1f (n=%d) tx_invalid_rate %.4f",
				s.TxP50Ms, s.TxP99Ms, s.TxN, invalidRate(s))
		}
	}
	res.note("failed_frac %.6f (%d of %d operations)", res.failedFrac(), res.Failed, res.Attempted)
	return res
}

// verdict is the correctness gate's outcome over a set of samples.
type verdict struct {
	attempted, failed int
	problems          []string
}

// check gates run samples: every survivor caught up, no order violations,
// no pending recoveries, closed transaction accounting with no errors, and
// one fingerprint per seed. An operation is a surviving peer or a submitted
// transaction; a run that errored or disagrees on the fingerprint fails all
// of its operations.
func (b *bench) check(samples []sample) verdict {
	var v verdict
	ref := map[int64]string{}
	for _, s := range samples {
		if _, ok := ref[s.Seed]; !ok && s.Err == "" {
			ref[s.Seed] = s.Fingerprint
		}
	}
	fallbackOps := 1
	if _, opt, err := b.w.build(b.seed); err == nil {
		fallbackOps = opt.Peers
	}
	for i, s := range samples {
		if s.Err != "" {
			v.attempted += fallbackOps
			v.failed += fallbackOps
			v.problems = append(v.problems, s.Err)
			continue
		}
		ops := s.Survivors + s.Submitted
		v.attempted += ops
		switch {
		case s.Fingerprint != ref[s.Seed]:
			v.failed += ops
			v.problems = append(v.problems, fmt.Sprintf("sample %d seed %d: fingerprint %.16s, want %.16s",
				i, s.Seed, s.Fingerprint, ref[s.Seed]))
			continue
		case s.Blocks == 0 || s.Survivors == 0:
			v.failed += ops
			v.problems = append(v.problems, fmt.Sprintf("sample %d seed %d: degenerate run (%d blocks, %d survivors)",
				i, s.Seed, s.Blocks, s.Survivors))
			continue
		}
		unresolved := s.Submitted - s.Committed - s.Conflicts
		if unresolved < 0 {
			unresolved = -unresolved
		}
		bad := s.Survivors - s.CaughtUp + s.OrderViolations + s.PendingRecoveries + unresolved + s.TxErrors
		if bad > 0 {
			v.failed += min(bad, ops)
			v.problems = append(v.problems, fmt.Sprintf(
				"sample %d seed %d: %d/%d caught up, %d order violations, %d pending recoveries, %d unresolved tx, %d tx errors",
				i, s.Seed, s.CaughtUp, s.Survivors, s.OrderViolations, s.PendingRecoveries, unresolved, s.TxErrors))
		}
	}
	return v
}

// result is the command's output: the gate's verdict and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string
	notes    []string
	problems []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(v verdict) *result {
	return &result{
		Correct:   v.failed == 0 && len(v.problems) == 0,
		Attempted: max(v.attempted, 1),
		Failed:    v.failed,
		Metrics:   map[string]metric{},
		problems:  v.problems,
	}
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failedFrac() float64 { return float64(r.Failed) / float64(r.Attempted) }

// print writes the human-readable table, then the JSON result as the last
// line.
func (r *result) print(w io.Writer) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# FAIL:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func okSamples(in []sample) []sample {
	var out []sample
	for _, s := range in {
		if s.Err == "" {
			out = append(out, s)
		}
	}
	return out
}

func field(in []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(in))
	for i, s := range in {
		out[i] = f(s)
	}
	return out
}

// median returns the median of vs (the mean of the middle pair for an even
// count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p50Max returns the median and maximum of durations, in milliseconds.
func p50Max(ds []time.Duration) [2]float64 {
	if len(ds) == 0 {
		return [2]float64{}
	}
	slices.Sort(ds)
	return [2]float64{ms(ds[(len(ds)-1)/2]), ms(ds[len(ds)-1])}
}

// trafficKB is bytes on the wire per peer per injected block, from
// Report.TotalBytes (Report.Overhead reads 0 on workload-plane runs).
func trafficKB(s sample) float64 {
	if s.Peers == 0 || s.Blocks == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Peers*s.Blocks) / 1e3
}

func invalidRate(s sample) float64 {
	if s.Committed+s.Conflicts == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(s.Committed+s.Conflicts)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
