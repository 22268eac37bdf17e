package harness

import (
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
)

// The lookahead rule: the conservative window width must lower-bound every
// cross-shard delivery latency. The LAN propagation floor always applies;
// WAN separation raises it by the inter-site delay — except under
// ConsenterSpread, where consenters share the organizations' sites and some
// cross-shard pairs stay on the LAN floor.
func TestLookaheadRule(t *testing.T) {
	floor := netmodel.LAN().PropMin
	if floor <= 0 {
		t.Fatalf("LAN model has no propagation floor (%v); the sharded engine's safety argument is void", floor)
	}
	cases := []struct {
		name string
		p    NetworkParams
		want time.Duration
	}{
		{"lan-only", NetworkParams{}, floor},
		{"wan", NetworkParams{WANDelay: 25 * time.Millisecond}, floor + 25*time.Millisecond},
		{"wan-clustered", NetworkParams{WANDelay: 25 * time.Millisecond, Consenters: 3},
			floor + 25*time.Millisecond},
		// Spread consenters sit on org sites: a consenter and its host
		// org's peers are one LAN apart but on different shards, so only
		// the floor is safe.
		{"wan-consenter-spread", NetworkParams{WANDelay: 25 * time.Millisecond, Consenters: 3, ConsenterSpread: true},
			floor},
	}
	for _, c := range cases {
		if got := c.p.lookahead(); got != c.want {
			t.Errorf("%s: lookahead = %v, want %v", c.name, got, c.want)
		}
	}
}

// A sharded network hosts each organization on its own engine, the ordering
// service on another, and the scenario-facing Engine field on the control
// engine — all distinct, all windows driven through the coordinator.
func TestShardedNetworkEngineLayout(t *testing.T) {
	n, err := NewNetwork(NetworkParams{
		Seed:     1,
		Orgs:     []OrgSpec{{Peers: 2}, {Peers: 2}},
		WANDelay: 25 * time.Millisecond,
		Sharded:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	se := n.Coordinator()
	if got, want := se.NumShards(), 3; got != want {
		t.Fatalf("NumShards = %d, want %d (one per org + ordering)", got, want)
	}
	if se.Lookahead() != 25*time.Millisecond+netmodel.LAN().PropMin {
		t.Errorf("lookahead = %v", se.Lookahead())
	}
	if n.Engine != se.Control() {
		t.Error("Network.Engine is not the control engine")
	}
	if n.OrgEngine(0) == n.OrgEngine(1) || n.OrgEngine(0) == n.OrdererEngine() {
		t.Error("org and ordering engines are not distinct shards")
	}
	if n.OrdererEngine() != se.Shard(2) {
		t.Error("ordering service is not on the last shard")
	}
}

// A one-engine network runs every organization, the ordering service and
// the control plane on the coordinator's single engine, with one emission
// context and no barriers.
func TestOneEngineNetworkLayout(t *testing.T) {
	n, err := NewNetwork(NetworkParams{
		Seed:       1,
		Orgs:       []OrgSpec{{Peers: 2}, {Peers: 3}},
		Consenters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	se := n.Coordinator()
	if se.NumShards() != 1 || se.Contexts() != 1 || n.ObsContexts() != 1 {
		t.Fatalf("shards = %d, contexts = %d, obs contexts = %d; want 1/1/1",
			se.NumShards(), se.Contexts(), n.ObsContexts())
	}
	for org := range n.Orgs {
		if n.OrgEngine(org) != n.Engine || n.OrgObsContext(org) != 0 {
			t.Errorf("org %d is not on the one engine", org)
		}
	}
	if n.OrdererEngine() != n.Engine || n.OrdObsContext() != 0 || n.CtlObsContext() != 0 {
		t.Error("ordering service or control plane is not on the one engine")
	}
	n.StartAll()
	n.RunUntil(2 * time.Second)
	n.StopAll()
	if full, elided := se.BarrierStats(); full != 0 || elided != 0 {
		t.Errorf("one-engine run counted barriers: full=%d elided=%d", full, elided)
	}
	if n.ExecutedEvents() != n.Engine.Executed() || n.ExecutedEvents() == 0 {
		t.Errorf("ExecutedEvents = %d, engine executed %d", n.ExecutedEvents(), n.Engine.Executed())
	}
}
