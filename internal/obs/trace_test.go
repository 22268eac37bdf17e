package obs

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func ev(at int, kind EventKind, num uint64) Event {
	return Event{At: time.Duration(at), Kind: kind, Node: 1, Peer: 2, Num: num}
}

// TestRingSemantics pins the bounded buffer: once full it keeps exactly
// the most recent cap events, oldest first.
func TestRingSemantics(t *testing.T) {
	s := NewShardTrace(4)
	for i := 0; i < 10; i++ {
		s.Emit(ev(i, EvGossipSend, uint64(i)))
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
	last := s.Last(4)
	for i, e := range last {
		if e.Num != uint64(6+i) {
			t.Fatalf("ring kept %v, want 6..9", last)
		}
	}
	if got := s.Last(2); len(got) != 2 || got[0].Num != 8 {
		t.Fatalf("Last(2) = %v", got)
	}
}

// TestMergedOrder pins the (At, context, emission order) total order.
func TestMergedOrder(t *testing.T) {
	tr := NewTracer(3, 0)
	tr.Shards[2].Emit(ev(5, EvFault, 0))
	tr.Shards[0].Emit(ev(5, EvGossipSend, 1))
	tr.Shards[0].Emit(ev(5, EvGossipSend, 2))
	tr.Shards[1].Emit(ev(3, EvGossipRecv, 3))
	merged := tr.Merged()
	wantNum := []uint64{3, 1, 2, 0} // t=3 first; then t=5 by context 0,0,2
	if len(merged) != len(wantNum) {
		t.Fatalf("merged %d events", len(merged))
	}
	for i, e := range merged {
		if e.Num != wantNum[i] {
			t.Fatalf("merged order %v, want nums %v", merged, wantNum)
		}
	}
}

// sortMerge is the reference total order the k-way merge must reproduce:
// every event tagged with its context and position, then sorted by
// (At, context, position).
func sortMerge(lists [][]Event) []Event {
	type tagged struct {
		e        Event
		ctx, pos int
	}
	var all []tagged
	for c, l := range lists {
		for p, e := range l {
			all = append(all, tagged{e, c, p})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.At != all[j].e.At {
			return all[i].e.At < all[j].e.At
		}
		if all[i].ctx != all[j].ctx {
			return all[i].ctx < all[j].ctx
		}
		return all[i].pos < all[j].pos
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.e
	}
	return out
}

// TestMergeMatchesSortReference checks Merged and Pinned against the
// reference sort on nondecreasing per-context buffers with many equal
// timestamps across contexts, both as full logs and as wrapped rings —
// where Pinned must still hold every pinned event ever emitted.
func TestMergeMatchesSortReference(t *testing.T) {
	kinds := []EventKind{EvGossipSend, EvDeliver, EvBlockCommit, EvFault, EvCaughtUp}
	for _, ringCap := range []int{0, 5} {
		rng := rand.New(rand.NewSource(1))
		tr := NewTracer(4, ringCap)
		emitted := make([][]Event, 4)
		clock := make([]time.Duration, 4)
		for i := 0; i < 400; i++ {
			c := rng.Intn(4)
			clock[c] += time.Duration(rng.Intn(3)) // zero steps tie timestamps
			e := Event{At: clock[c], Kind: kinds[rng.Intn(len(kinds))], Num: uint64(i)}
			tr.Shards[c].Emit(e)
			emitted[c] = append(emitted[c], e)
		}
		held := make([][]Event, 4)
		for c, s := range tr.Shards {
			held[c] = s.chronological()
			if ringCap > 0 && s.Len() >= int(s.Total()) {
				t.Fatalf("ring %d never wrapped", c)
			}
		}
		if got, want := tr.Merged(), sortMerge(held); !slices.Equal(got, want) {
			t.Fatalf("ring=%d: Merged diverges from the reference sort", ringCap)
		}
		var wantPinned []Event
		for _, e := range sortMerge(emitted) {
			if e.Kind.Pinned() {
				wantPinned = append(wantPinned, e)
			}
		}
		if got := tr.Pinned(); len(got) <= ringCap || !slices.Equal(got, wantPinned) {
			t.Fatalf("ring=%d: Pinned holds %d events, want the %d pinned ones in merge order",
				ringCap, len(got), len(wantPinned))
		}
	}
}

// TestJSONLStable pins byte-identity: the same events serialize to the
// same bytes, with integer timestamps and a fixed field order.
func TestJSONLStable(t *testing.T) {
	events := []Event{
		{At: 1500 * time.Microsecond, Kind: EvBlockCommit, Node: 7, Peer: -1, Num: 3, Aux: 0},
		{At: 2 * time.Millisecond, Kind: EvSyncSend, Node: 1, Peer: 2, Num: 9, Aux: 128},
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialization not stable")
	}
	want := `{"at_ns":1500000,"kind":"block_commit","node":7,"peer":-1,"num":3,"aux":0}` + "\n"
	if !strings.HasPrefix(a.String(), want) {
		t.Fatalf("unexpected line:\n%s", a.String())
	}
}

// TestEmitNoAllocsRing pins that ring-mode emission is allocation-free
// once the ring is warm — the flight recorder must be attachable to the
// per-message hot path without breaking its 0 allocs/op contract.
func TestEmitNoAllocsRing(t *testing.T) {
	s := NewShardTrace(64)
	e := ev(1, EvGossipSend, 1)
	for i := 0; i < 128; i++ {
		s.Emit(e)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Emit(e) }); n != 0 {
		t.Fatalf("ring emit allocated %.1f per run, want 0", n)
	}
}

// TestWireKindTable spot-checks the message-type classification and the
// send/recv pairing.
func TestWireKindTable(t *testing.T) {
	if WireSendKind(10) == EvNone {
		t.Fatal("unmapped type fell to EvNone")
	}
	for k := EvGossipSend; k <= EvOrderSend; k += 2 {
		if k.String() == "" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}
