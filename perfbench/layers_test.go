package main

import (
	"math"
	"testing"
)

const tracesOut = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   crypto/internal/fips140/ed25519.verify
             crypto/ed25519.Verify (inline)
             fabricgossip/internal/crypto.Verify
             fabricgossip/internal/ledger.ValidateBlock
             main.measuredRun
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   fabricgossip/internal/gossip/enhanced.(*Proto).handle
             fabricgossip/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestParseTracesChargesInnermostModule(t *testing.T) {
	got, err := parseTraces([]byte(tracesOut))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"crypto": 0.04, "gc": 0.03, "gossip_enhanced": 0.02, "runtime": 0.01}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseTracesRejectsMissingSamples(t *testing.T) {
	short := tracesOut[:len(tracesOut)-len("      10ms   runtime.futex\n             runtime.mcall\n-----------+-------------------------------------------------------\n")]
	if _, err := parseTraces([]byte(short)); err == nil {
		t.Fatal("parseTraces accepted samples that do not add up to the header total")
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "fabricgossip/internal/wire.(*Encoder).Block", "fabricgossip/internal/sim.(*Engine).Step"}, "wire"},
		{[]string{"fabricgossip/internal/newpkg.F"}, "other"},
		{[]string{"encoding/json.Marshal", "main.runChild"}, "bench"},
		{[]string{"runtime.bgsweep"}, "gc"},
		{[]string{"runtime.schedule"}, "runtime"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
