package main

import "testing"

func TestCheckCountsFailedOperations(t *testing.T) {
	w, err := lookupWorkload("txload-raft-4x50")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 1}
	good := sample{Seed: 1, Fingerprint: "a", Survivors: 200, CaughtUp: 200, Blocks: 10,
		Submitted: 50, Committed: 30, Conflicts: 20}

	if v := b.check([]sample{good, good}); v.failed != 0 || v.attempted != 500 || len(v.problems) != 0 {
		t.Fatalf("clean samples: %+v", v)
	}

	behind := good
	behind.CaughtUp = 197
	behind.Committed = 29 // one transaction left unresolved
	if v := b.check([]sample{good, behind}); v.failed != 4 {
		t.Fatalf("3 peers behind + 1 unresolved tx: failed = %d, want 4", v.failed)
	}

	diverged := good
	diverged.Fingerprint = "b"
	if v := b.check([]sample{good, diverged}); v.failed != 250 {
		t.Fatalf("fingerprint mismatch: failed = %d, want all 250 operations", v.failed)
	}

	otherSeed := diverged
	otherSeed.Seed = 2
	if v := b.check([]sample{good, otherSeed}); v.failed != 0 {
		t.Fatalf("fingerprints differ only across seeds: failed = %d, want 0", v.failed)
	}

	if v := b.check([]sample{good, {Seed: 1, Err: "boom"}}); v.failed != 200 || v.attempted != 450 {
		t.Fatalf("errored run: %+v, want its 200 peers failed", v)
	}
}
