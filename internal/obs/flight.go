package obs

import (
	"fmt"
	"os"
	"sync"
)

// FlightRecorder turns a Tracer's buffers into a crash artifact: when an
// invariant breaks — a cross-shard lookahead violation, a pooled-envelope
// leak, a workload accounting breach — the recorder writes the most recent
// events to a file, so 100k-peer failures arrive with the context that
// produced them instead of a one-line panic.
//
// The tracer's buffers are usually rings (Options.FlightRing), bounding
// memory; a full trace works too, the dump simply takes its tail.
type FlightRecorder struct {
	tracer *Tracer
	n      int    // events per context in a dump
	dir    string // dump directory ("" = os.TempDir())

	mu sync.Mutex // serializes dumps
}

// NewFlightRecorder wraps the tracer. Each dump carries up to lastN events
// per context; dir empty means the OS temp directory.
func NewFlightRecorder(t *Tracer, lastN int, dir string) *FlightRecorder {
	if lastN <= 0 {
		lastN = 256
	}
	return &FlightRecorder{tracer: t, n: lastN, dir: dir}
}

// Dump writes every context's recent events. Call only at quiescent
// instants (post-run audits, barrier hooks): it reads all buffers.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	return f.dump(reason, -1)
}

// DumpShard writes a single context's recent events — the safe variant
// when the failing goroutine owns only its own shard's buffer, as in a
// lookahead-violation panic mid-window (the other shards are still
// running; touching their buffers would race).
func (f *FlightRecorder) DumpShard(shard int, reason string) (string, error) {
	return f.dump(reason, shard)
}

func (f *FlightRecorder) dump(reason string, only int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out, err := os.CreateTemp(f.dir, "fabricgossip-flight-*.log")
	if err != nil {
		return "", err
	}
	defer out.Close()
	if _, err := fmt.Fprintf(out, "flight recorder dump: %s\n", reason); err != nil {
		return "", err
	}
	for i, s := range f.tracer.Shards {
		if only >= 0 && i != only {
			continue
		}
		last := s.Last(f.n)
		if _, err := fmt.Fprintf(out, "-- context %d: last %d of %d events\n", i, len(last), s.Total()); err != nil {
			return "", err
		}
		if err := WriteJSONL(out, last); err != nil {
			return "", err
		}
	}
	return out.Name(), nil
}
