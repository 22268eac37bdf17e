package netmodel

import (
	"testing"
	"time"

	"fabricgossip/internal/wire"
)

// The TCP runtime lets callers pick arbitrary NodeIDs, so a sparse huge id
// must route through the overflow map instead of growing the dense tables
// to the id's value.
func TestTrafficSparseHugeNodeIDs(t *testing.T) {
	tr := NewSimTraffic(time.Second)
	huge := wire.NodeID(4_000_000_000)
	tr.Record(huge, 3, wire.TypeData, 500, 0)
	tr.Record(3, huge, wire.TypeAlive, 200, 1500*time.Millisecond)

	if in, out := tr.NodeTotals(huge); in != 200 || out != 500 {
		t.Fatalf("huge node totals = (%d, %d), want (200, 500)", in, out)
	}
	if in, out := tr.NodeTotals(3); in != 500 || out != 200 {
		t.Fatalf("dense node totals = (%d, %d), want (500, 200)", in, out)
	}
	s := tr.NodeSeries(huge, 2)
	if s[0] != 500e-6 || s[1] != 200e-6 {
		t.Fatalf("huge node series = %v, want [0.0005 0.0002]", s)
	}
	if got := tr.TotalBytes(); got != 700 {
		t.Fatalf("TotalBytes = %d, want 700", got)
	}
}

// Per-type accounting silently ignores out-of-range tags instead of
// indexing past the flat counter arrays.
func TestTrafficOutOfRangeTypeIgnored(t *testing.T) {
	tr := NewSimTraffic(time.Second)
	bad := wire.MsgType(wire.NumMsgTypes)
	tr.Record(0, 1, bad, 100, 0)
	if got := tr.CountOf(bad); got != 0 {
		t.Fatalf("CountOf(out-of-range) = %d, want 0", got)
	}
	if got := tr.BytesOf(bad); got != 0 {
		t.Fatalf("BytesOf(out-of-range) = %d, want 0", got)
	}
	// The byte totals still count the transmission itself.
	if got := tr.TotalBytes(); got != 100 {
		t.Fatalf("TotalBytes = %d, want 100", got)
	}
}

// Record must be allocation-free at steady state (node slots and buckets
// already grown): it is called once per simulated message.
func TestTrafficRecordSteadyStateAllocationFree(t *testing.T) {
	tr := NewSimTraffic(10 * time.Second)
	tr.Record(0, 1, wire.TypeData, 1000, 0) // grow the two node slots
	if allocs := testing.AllocsPerRun(2000, func() {
		tr.Record(0, 1, wire.TypeData, 1000, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("steady-state Record allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkTrafficRecord measures the dense per-message accounting on the
// single-threaded sim path. Must report 0 allocs/op.
func BenchmarkTrafficRecord(b *testing.B) {
	tr := NewSimTraffic(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(wire.NodeID(i%100), wire.NodeID((i+1)%100), wire.TypeData, 5000,
			time.Duration(i)*time.Millisecond)
	}
}
