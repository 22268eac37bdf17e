package gossip

import (
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// sinkEndpoint records outbound messages and drops them.
type sinkEndpoint struct {
	id   wire.NodeID
	to   []wire.NodeID
	sent []wire.Message
}

func (s *sinkEndpoint) ID() wire.NodeID { return s.id }
func (s *sinkEndpoint) Send(to wire.NodeID, m wire.Message) error {
	s.to = append(s.to, to)
	s.sent = append(s.sent, m)
	return nil
}
func (s *sinkEndpoint) SetHandler(transport.Handler) {}

func newTestCore(t *testing.T, self wire.NodeID, n int, tune func(*Config)) (*Core, *sinkEndpoint, *sim.Engine) {
	t.Helper()
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	cfg := DefaultConfig(self, peers)
	if tune != nil {
		tune(&cfg)
	}
	ep := &sinkEndpoint{id: self}
	engine := sim.NewEngine(1)
	return New(cfg, ep, engine, engine.Rand("gossip"), noopProtocol{}), ep, engine
}

type noopProtocol struct{}

func (noopProtocol) Name() string                          { return "noop" }
func (noopProtocol) Start(*Core)                           {}
func (noopProtocol) Stop()                                 {}
func (noopProtocol) OnOrdererBlock(*ledger.Block)          {}
func (noopProtocol) Handle(wire.NodeID, wire.Message) bool { return false }
func (noopProtocol) OnBlockStored(*ledger.Block)           {}

// newGappyCore builds a core over a non-contiguous peer list (every other
// id), forcing the materialized-slice sampling path: contiguous lists take
// the virtual range path and hold no candidate slice at all.
func newGappyCore(t *testing.T, self wire.NodeID, n int) *Core {
	t.Helper()
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(2 * i)
	}
	cfg := DefaultConfig(self, peers)
	engine := sim.NewEngine(1)
	return New(cfg, &sinkEndpoint{id: self}, engine, engine.Rand("gossip"), noopProtocol{})
}

// RandomPeers samples in place with undo-swaps; after every call the
// candidate slice must be back in canonical order (peers minus self, in
// cfg.Peers order), or the next call's draw — and the whole run's
// determinism — would depend on call history.
func TestRandomPeersRestoresCanonicalOrder(t *testing.T) {
	c := newGappyCore(t, 6, 10)
	if c.rangeMode {
		t.Fatal("gappy peer list must not take the range path")
	}
	canonical := append([]wire.NodeID(nil), c.others...)
	for call := 0; call < 50; call++ {
		k := 1 + call%len(canonical)
		got := c.RandomPeers(k)
		if len(got) != k {
			t.Fatalf("call %d: got %d peers, want %d", call, len(got), k)
		}
		seen := map[wire.NodeID]bool{}
		for _, p := range got {
			if p == c.cfg.Self {
				t.Fatalf("call %d: sampled self", call)
			}
			if seen[p] {
				t.Fatalf("call %d: duplicate peer %v", call, p)
			}
			seen[p] = true
		}
		for i, p := range c.others {
			if p != canonical[i] {
				t.Fatalf("call %d: candidate order not restored at %d: %v vs %v",
					call, i, c.others, canonical)
			}
		}
	}
}

// The undo-swap sampler must consume the random stream and produce results
// exactly like the per-call rebuild it replaced, or every checked-in
// fingerprint would move.
func TestRandomPeersMatchesPerCallRebuildReference(t *testing.T) {
	const n = 17
	c, _, _ := newTestCore(t, 5, n, nil)

	// Reference: the pre-optimization algorithm on an identical stream.
	ref := sim.NewEngine(1).Rand("gossip")
	refDraw := func(k int) []wire.NodeID {
		var cand []wire.NodeID
		for i := 0; i < n; i++ {
			if wire.NodeID(i) != 5 {
				cand = append(cand, wire.NodeID(i))
			}
		}
		if k > len(cand) {
			k = len(cand)
		}
		if k <= 0 {
			return nil
		}
		out := make([]wire.NodeID, k)
		for i := 0; i < k; i++ {
			j := i + ref.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}

	for call := 0; call < 200; call++ {
		k := call % (n + 2) // exercise k == 0 and k > eligible too
		got := c.RandomPeers(k)
		want := refDraw(k)
		if len(got) != len(want) {
			t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
			}
		}
	}
}

// An orderer or observer core lists only remote peers: range mode must
// then draw from the whole range (no self to skip), matching the old
// slice walk on an identical stream.
func TestRandomPeersRangeModeSelfOutsideRange(t *testing.T) {
	const n = 11
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(10 + i)
	}
	cfg := DefaultConfig(100, peers)
	engine := sim.NewEngine(1)
	c := New(cfg, &sinkEndpoint{id: 100}, engine, engine.Rand("gossip"), noopProtocol{})
	if !c.rangeMode || c.selfInRange || c.nOthers != n {
		t.Fatalf("rangeMode=%v selfInRange=%v nOthers=%d, want true/false/%d",
			c.rangeMode, c.selfInRange, c.nOthers, n)
	}

	ref := sim.NewEngine(1).Rand("gossip")
	refDraw := func(k int) []wire.NodeID {
		cand := append([]wire.NodeID(nil), peers...)
		if k > len(cand) {
			k = len(cand)
		}
		out := make([]wire.NodeID, k)
		for i := 0; i < k; i++ {
			j := i + ref.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}
	for call := 0; call < 100; call++ {
		k := 1 + call%n
		got := c.RandomPeers(k)
		want := refDraw(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
			}
		}
	}
}

// Recovery must still fire when the peer that advertised the maximum height
// has died and been pruned: the fetcher's stale upper bound triggers a
// scan, the scan tightens it and targets the best live peer. (The bound's
// tightening itself is asserted in internal/statesync's unit tests; here
// the delegation from the core's membership sweep must hold.)
func TestRecoveryAfterMaxAdvertiserPruned(t *testing.T) {
	c, ep, engine := newTestCore(t, 0, 4, nil)

	// Peer 1 advertises height 5 and is observed live, then expires and is
	// pruned exactly as aliveTick does.
	c.handleMessage(1, &wire.StateInfo{Height: 5})
	c.handleMessage(1, &wire.Alive{Seq: 1})
	engine.RunUntil(c.cfg.AliveExpiration + 3*c.cfg.AliveInterval + time.Second)
	c.aliveTick()
	if !c.PeerDead(1) {
		t.Fatal("peer 1 should have expired")
	}
	if _, ok := c.PeerHeights()[1]; ok {
		t.Fatal("expired peer's height not forgotten by the fetcher")
	}

	// Peer 2 is live at a lower height; recovery must target it.
	c.handleMessage(2, &wire.StateInfo{Height: 3})
	c.handleMessage(2, &wire.Alive{Seq: 1})
	ep.to, ep.sent = nil, nil
	c.fetcher.Tick()

	var req *wire.StateRequest
	var reqTo wire.NodeID
	for i, m := range ep.sent {
		if r, ok := m.(*wire.StateRequest); ok {
			req, reqTo = r, ep.to[i]
		}
	}
	if req == nil {
		t.Fatal("recovery tick sent no StateRequest despite a live peer being ahead")
	}
	if reqTo != 2 {
		t.Fatalf("recovery targeted %v, want live peer 2", reqTo)
	}
	if req.From != 0 || req.To != 3 {
		t.Fatalf("requested [%d, %d), want [0, 3)", req.From, req.To)
	}
}

// Caught-up peers — the steady state — must skip recovery without sending
// anything (and without consuming random values: determinism).
func TestRecoveryTickNoopWhenCaughtUp(t *testing.T) {
	c, ep, _ := newTestCore(t, 0, 4, nil)
	c.fetcher.Tick()
	if len(ep.sent) != 0 {
		t.Fatalf("fresh core sent %d messages from recovery tick, want 0", len(ep.sent))
	}
}

// Every aliveTick must reuse the one zero-filled metadata buffer instead of
// allocating aliveMetaSize bytes per heartbeat round.
func TestAliveTickReusesMetaBuffer(t *testing.T) {
	c, ep, _ := newTestCore(t, 0, 4, nil)
	c.aliveTick()
	c.aliveTick()
	var metas [][]byte
	for _, m := range ep.sent {
		if a, ok := m.(*wire.Alive); ok {
			metas = append(metas, a.Meta)
		}
	}
	if len(metas) < 2 {
		t.Fatalf("captured %d Alive messages, want >= 2", len(metas))
	}
	for i, meta := range metas {
		if len(meta) != aliveMetaSize {
			t.Fatalf("heartbeat %d meta is %d bytes, want %d", i, len(meta), aliveMetaSize)
		}
		if &meta[0] != &aliveMeta[0] {
			t.Fatalf("heartbeat %d holds a fresh meta buffer; want the shared one", i)
		}
	}
}

// RandomPeersInto with a reused buffer must consume the random stream and
// produce results identically to the allocating RandomPeers — buffer reuse
// is a pure allocation optimization, or every checked-in fingerprint would
// move.
func TestRandomPeersIntoMatchesRandomPeers(t *testing.T) {
	const n = 13
	cInto, _, _ := newTestCore(t, 4, n, nil)
	cRef, _, _ := newTestCore(t, 4, n, nil)
	var buf []wire.NodeID
	for call := 0; call < 200; call++ {
		k := call % (n + 2)
		buf = cInto.RandomPeersInto(k, buf)
		want := cRef.RandomPeers(k)
		if len(buf) != len(want) {
			t.Fatalf("call %d (k=%d): got %v, want %v", call, k, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, buf, want)
			}
		}
	}
}

// BenchmarkRandomPeers measures the sampler at organization scale: k swaps
// plus k undo-swaps, independent of n except for the rng's range.
func BenchmarkRandomPeers(b *testing.B) {
	peers := make([]wire.NodeID, 1000)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	cfg := DefaultConfig(0, peers)
	engine := sim.NewEngine(1)
	c := New(cfg, &sinkEndpoint{}, engine, engine.Rand("gossip"), noopProtocol{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.RandomPeers(4); len(got) != 4 {
			b.Fatal("short sample")
		}
	}
}
