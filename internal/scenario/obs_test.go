package scenario

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/sim"
)

// The observability plane's core contract: attaching it must not move the
// run. Trace points are passive (no random draws, no scheduled events) and
// the registries are read only at report time, so a run with tracing, the
// flight recorder, or both armed produces a fingerprint byte-identical to
// a bare run — sequentially and on the sharded engine. Report.Trace is
// rendered from the tracer's pinned events, so it must match the bare
// run's line for line even when a ring far smaller than the trace backs
// the recorder.
func TestObsLeavesFingerprintUnchanged(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		opt      Options
		trace    bool
		ring     int
		want     []string // substrings Report.Trace must contain
	}{
		{"sequential", "crash-restart", Options{Peers: 40, Seed: 3}, true, 64,
			[]string{"deliver block", "caught up to height"}},
		{"sharded", "sharded-crash-restart", Options{Peers: 20, Seed: 42}, true, 64,
			[]string{"deliver block", "caught up to height"}},
		{"ring-only", "sharded-crash-restart", Options{Peers: 20, Seed: 42}, false, 4,
			[]string{"deliver block", "caught up to height"}},
		{"consenter-election", "consenter-election-under-txload", Options{Peers: 20, Seed: 42}, true, 64,
			[]string{"crash consenter leader", "consenter leader is", "elected leader (term"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := RunNamed(tc.scenario, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			traced := tc.opt
			traced.Trace = tc.trace
			traced.FlightRing = tc.ring
			traced.FlightDir = t.TempDir()
			rep, err := RunNamed(tc.scenario, traced)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Fingerprint() != rep.Fingerprint() {
				t.Errorf("tracing moved the fingerprint:\n  bare:   %s\n  traced: %s",
					bare.Fingerprint(), rep.Fingerprint())
			}
			if len(rep.Trace) != len(bare.Trace) {
				t.Errorf("traced run has %d trace lines, bare run %d", len(rep.Trace), len(bare.Trace))
			}
			for i := range min(len(rep.Trace), len(bare.Trace)) {
				if rep.Trace[i] != bare.Trace[i] {
					t.Fatalf("trace line %d differs:\n  bare:   %s\n  traced: %s", i, bare.Trace[i], rep.Trace[i])
				}
			}
			if !tc.trace && len(bare.Trace) <= tc.ring {
				t.Errorf("trace has %d lines, not more than the %d-event ring", len(bare.Trace), tc.ring)
			}
			joined := strings.Join(bare.Trace, "\n")
			for _, w := range tc.want {
				if !strings.Contains(joined, w) {
					t.Errorf("trace has no %q line", w)
				}
			}
			if tc.trace && len(rep.Events) == 0 {
				t.Error("traced run produced no structured events")
			}
			if !tc.trace && len(rep.Events) != 0 {
				t.Errorf("ring-only run produced %d structured events", len(rep.Events))
			}
			if len(bare.Events) != 0 {
				t.Errorf("bare run produced %d structured events", len(bare.Events))
			}
			if rep.FlightDump != "" {
				t.Errorf("healthy run wrote a flight dump: %s", rep.FlightDump)
			}
			if v, ok := rep.Obs.Get("wire_msgs_total", "dir", "out"); !ok || v == 0 {
				t.Error("traced run's snapshot has no wire sends")
			}
			// The snapshot exists even without the obs plane armed: report
			// counters are always re-registered (cmd/scenarios -stats).
			if v, ok := bare.Obs.Get("engine_events_total"); !ok || v != float64(bare.EngineEvents) {
				t.Errorf("bare snapshot engine_events_total = %v, want %d", v, bare.EngineEvents)
			}
		})
	}
}

// The merged structured trace is deterministic in (scenario, Options):
// byte-identical JSONL regardless of GOMAXPROCS, because per-context
// buffers merge by (time, context, emission order) — never by goroutine
// interleaving.
func TestTraceJSONLIndependentOfParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var outs [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := RunNamed("sharded-crash-restart", Options{Peers: 20, Seed: 42, Trace: true})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !rep.Sharded {
			t.Fatalf("procs=%d: expected a sharded run", procs)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, rep.Events); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("procs=%d: empty trace", procs)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("structured trace depends on GOMAXPROCS: %d vs %d bytes (first divergence at byte %d)",
			len(outs[0]), len(outs[1]), firstDiff(outs[0], outs[1]))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// A time-series run stays deterministic per seed and actually samples: the
// same options reproduce the same fingerprint, and the series holds one
// row per period with the instrument set fixed at the first sample.
func TestTimeSeriesSamplingDeterministic(t *testing.T) {
	opt := Options{Peers: 40, Seed: 3, TimeSeries: 5 * time.Second}
	a, err := RunNamed("crash-restart", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNamed("crash-restart", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("time-series runs with identical options diverged")
	}
	if a.Series == nil || len(a.Series.Rows) == 0 {
		t.Fatal("no time-series rows sampled")
	}
	if len(a.Series.Names) == 0 {
		t.Fatal("time-series fixed no instrument names")
	}
	for _, row := range a.Series.Rows {
		if len(row.Vals) != len(a.Series.Names) {
			t.Fatalf("row at %v has %d values for %d instruments", row.At, len(row.Vals), len(a.Series.Names))
		}
	}
}

// The flight recorder's crash path: a cross-shard delivery violating the
// lookahead window runs the violation hook on the offending shard's
// goroutine — dumping that shard's recent ring to disk — and then panics.
// The dump must carry only the offending shard's context and only the last
// FlightRing events of it.
func TestViolationHookDumpsFlightRecorder(t *testing.T) {
	se := sim.NewShardedEngine(1, 2, 10*time.Millisecond)
	tracer := obs.NewTracer(2, 16)
	for i := 0; i < 40; i++ {
		tracer.Shards[0].Emit(obs.Event{
			At: time.Duration(i) * time.Millisecond, Kind: obs.EvGossipSend,
			Node: 0, Peer: 1, Num: uint64(i),
		})
	}
	tracer.Shards[1].Emit(obs.Event{At: 0, Kind: obs.EvGossipRecv, Node: 1, Peer: 0, Num: 999})
	fr := obs.NewFlightRecorder(tracer, 8, t.TempDir())
	var hookSrc, hookDst int
	var dumpPath string
	se.SetViolationHook(func(src, dst int, msg string) {
		hookSrc, hookDst = src, dst
		if !strings.Contains(msg, "violates window horizon") {
			t.Errorf("violation message = %q", msg)
		}
		if p, err := fr.DumpShard(src, msg); err == nil {
			dumpPath = p
		} else {
			t.Errorf("DumpShard: %v", err)
		}
	})
	se.RunUntil(50 * time.Millisecond) // horizon is now pinned to 50ms

	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if hookSrc != 0 || hookDst != 1 {
			t.Errorf("hook saw shard %d -> %d, want 0 -> 1", hookSrc, hookDst)
		}
		if dumpPath == "" {
			t.Fatal("violation hook wrote no dump")
		}
		data, err := os.ReadFile(dumpPath)
		if err != nil {
			t.Fatal(err)
		}
		dump := string(data)
		if !strings.Contains(dump, "context 0") {
			t.Error("dump missing the offending shard's context header")
		}
		if strings.Contains(dump, "context 1") {
			t.Error("single-shard dump leaked another context (unsafe mid-window)")
		}
		// Ring capacity 16 holds events 24..39; the dump keeps the last 8.
		if !strings.Contains(dump, `"num":39`) || !strings.Contains(dump, `"num":32`) {
			t.Error("dump missing the most recent ring events")
		}
		if strings.Contains(dump, `"num":31`) {
			t.Error("dump carries more than the last 8 events")
		}
	}()
	se.SendCross(0, 1, time.Millisecond, nil, 0, 0, nil)
}
