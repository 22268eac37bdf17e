package transport

import (
	"fmt"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// SimNetwork is the discrete-event implementation of the transport. Every
// send runs on the sender's shard engine — its clock, its "transport"
// random stream, its traffic accountant — and must only be issued from that
// engine's callbacks. The engine passed to NewSimNetwork is shard 0 and every
// node starts on it, so a network that never calls EnableSharding is the
// plain one-engine transport.
type SimNetwork struct {
	model netmodel.Model

	nodes    []*SimEndpoint
	downLink map[[2]wire.NodeID]bool
	dropRate float64
	// DownNode silences a node entirely (crash-style fault).
	downNode map[wire.NodeID]bool
	// partition maps each node to a partition group; messages crossing
	// group boundaries are dropped. nil means no partition is active.
	partition map[wire.NodeID]int
	// nodeExtra adds latency on top of the network model (straggler-node
	// faults).
	nodeExtra map[wire.NodeID]time.Duration
	// sites/siteDelay model WAN separation without per-link state: every
	// node belongs to a site (dense-id indexed; default site 0), and a
	// message crossing a site boundary pays siteDelay extra one-way
	// latency. An O(1) array compare per send instead of the O(n^2) link
	// override map a full WAN mesh would need.
	sites     []int
	siteDelay time.Duration
	// lossExempt message types skip the uniform drop rate: they model
	// reliable streams (e.g. the ordering service's delivery gRPC) whose
	// retransmissions mask transient loss. Partitions and crashed nodes
	// still cut them.
	lossExempt map[wire.MsgType]bool

	// deliverFn is the deliver method bound once at construction so that
	// per-message scheduling through sim.Engine.AfterMsg captures nothing.
	deliverFn sim.DeliveryHandler

	// Shard layout, indexed by shard: same-shard deliveries schedule
	// directly on the shard engine, cross-shard ones go through the
	// coordinator's inboxes (se is set by EnableSharding; a one-shard
	// network never crosses). Under a multi-shard coordinator the fault maps
	// above are written only at window barriers (every shard quiescent) and
	// read concurrently during windows, which is safe without locks.
	se           *sim.ShardedEngine
	shardOf      []int // dense by NodeID; -1 = unassigned
	newShard     int   // shard AddNode assigns: 0, or -1 after EnableSharding
	shardEng     []*sim.Engine
	shardRng     []*sim.Rand
	shardTraffic []*netmodel.Traffic // nil entries skip accounting

	// wobs, when set, observes every message at the NIC, indexed by the
	// sender's/receiver's shard. Like the traffic accountants, each entry
	// is written only by its own shard's goroutine.
	wobs []*WireObs
}

// NewSimNetwork creates a simulated network. traffic may be nil to skip
// accounting.
func NewSimNetwork(engine *sim.Engine, model netmodel.Model, traffic *netmodel.Traffic) *SimNetwork {
	n := &SimNetwork{
		model:        model,
		shardEng:     []*sim.Engine{engine},
		shardRng:     []*sim.Rand{engine.Rand("transport")},
		shardTraffic: []*netmodel.Traffic{traffic},
		downLink:     make(map[[2]wire.NodeID]bool),
		downNode:     make(map[wire.NodeID]bool),
		nodeExtra:    make(map[wire.NodeID]time.Duration),
	}
	n.deliverFn = n.deliver
	return n
}

// AddNode attaches a new endpoint and returns it. IDs are assigned densely
// from 0 in creation order.
func (n *SimNetwork) AddNode() *SimEndpoint {
	ep := &SimEndpoint{net: n, id: wire.NodeID(len(n.nodes))}
	n.nodes = append(n.nodes, ep)
	n.shardOf = append(n.shardOf, n.newShard)
	return ep
}

// Size returns the number of attached endpoints.
func (n *SimNetwork) Size() int { return len(n.nodes) }

// EnableSharding lays the network over the coordinator's shards: sends
// draw delays from the sender's shard engine and record into the shard's
// traffic accountant (one per shard, merged for reporting), and deliveries
// crossing a shard boundary are routed through the coordinator's
// conservative inboxes. Every node must subsequently be assigned a shard
// with SetNodeShard. traffics must have one accountant per shard (or be nil
// to skip accounting).
func (n *SimNetwork) EnableSharding(se *sim.ShardedEngine, traffics []*netmodel.Traffic) {
	if traffics == nil {
		traffics = make([]*netmodel.Traffic, se.NumShards())
	}
	if len(traffics) != se.NumShards() {
		panic(fmt.Sprintf("transport: %d traffic accountants for %d shards", len(traffics), se.NumShards()))
	}
	n.se = se
	n.shardTraffic = traffics
	n.shardEng = make([]*sim.Engine, se.NumShards())
	n.shardRng = make([]*sim.Rand, se.NumShards())
	for i := range n.shardEng {
		n.shardEng[i] = se.Shard(i)
		n.shardRng[i] = se.Shard(i).Rand("transport")
	}
	n.newShard = -1
	for i := range n.shardOf {
		n.shardOf[i] = -1
	}
}

// SetObs attaches per-shard wire observers, one entry per shard (call after
// EnableSharding). nil detaches.
func (n *SimNetwork) SetObs(wobs []*WireObs) {
	if wobs != nil && len(wobs) != len(n.shardEng) {
		panic(fmt.Sprintf("transport: %d wire observers for %d shards", len(wobs), len(n.shardEng)))
	}
	n.wobs = wobs
}

// SetNodeShard assigns an attached node to a shard. After EnableSharding,
// sends from or to an unassigned node panic: silently guessing a shard
// would let a message bypass the conservative synchronization.
func (n *SimNetwork) SetNodeShard(id wire.NodeID, shard int) {
	n.shardOf[id] = shard
}

// shardOfNode returns the node's shard, panicking on unassigned nodes.
func (n *SimNetwork) shardOfNode(id wire.NodeID) int {
	if s := n.shardOf[id]; s >= 0 {
		return s
	}
	panic(fmt.Sprintf("transport: node %v has no shard assignment", id))
}

// SetLinkDown cuts (or restores) the directed link from -> to.
func (n *SimNetwork) SetLinkDown(from, to wire.NodeID, down bool) {
	if down {
		n.downLink[[2]wire.NodeID{from, to}] = true
	} else {
		delete(n.downLink, [2]wire.NodeID{from, to})
	}
}

// SetNodeDown crashes (or revives) a node: all its inbound and outbound
// messages are dropped.
func (n *SimNetwork) SetNodeDown(id wire.NodeID, down bool) {
	if down {
		n.downNode[id] = true
	} else {
		delete(n.downNode, id)
	}
}

// SetDropRate installs a uniform message loss probability in [0, 1).
func (n *SimNetwork) SetDropRate(p float64) { n.dropRate = p }

// SetLossExempt marks (or unmarks) a message type as exempt from the
// uniform drop rate, modelling a reliable transport underneath it. Node
// crashes, link cuts and partitions still drop exempt messages.
func (n *SimNetwork) SetLossExempt(mt wire.MsgType, exempt bool) {
	if n.lossExempt == nil {
		n.lossExempt = make(map[wire.MsgType]bool)
	}
	n.lossExempt[mt] = exempt
}

// Partition splits the network: each listed group can only talk within
// itself. Nodes absent from every group join group 0. A nil or single-group
// argument heals any active partition.
func (n *SimNetwork) Partition(groups ...[]wire.NodeID) {
	if len(groups) <= 1 {
		n.partition = nil
		return
	}
	n.partition = make(map[wire.NodeID]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.partition[id] = g
		}
	}
}

// Heal removes any active partition. Link/node down states and latency
// overrides are independent and stay in place.
func (n *SimNetwork) Heal() { n.partition = nil }

// SetNodeExtraDelay adds d of one-way latency to every message entering or
// leaving the node (a straggler host or a WAN-attached peer). d <= 0
// removes the override.
func (n *SimNetwork) SetNodeExtraDelay(id wire.NodeID, d time.Duration) {
	if d <= 0 {
		delete(n.nodeExtra, id)
	} else {
		n.nodeExtra[id] = d
	}
}

// SetNodeSite assigns the node to a WAN site. Nodes default to site 0;
// messages between different sites pay the SetSiteDelay latency.
func (n *SimNetwork) SetNodeSite(id wire.NodeID, site int) {
	for len(n.sites) <= int(id) {
		n.sites = append(n.sites, 0)
	}
	n.sites[id] = site
}

// SetSiteDelay sets the extra one-way latency every message crossing a
// site boundary pays. d <= 0 disables site-based delays.
func (n *SimNetwork) SetSiteDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.siteDelay = d
}

// siteOf returns the node's WAN site (default 0).
func (n *SimNetwork) siteOf(id wire.NodeID) int {
	if int(id) < len(n.sites) {
		return n.sites[id]
	}
	return 0
}

// Reachable reports whether a message from -> to would currently be
// delivered, ignoring probabilistic loss: the destination exists, neither
// endpoint is down, the link is up and no partition separates them.
func (n *SimNetwork) Reachable(from, to wire.NodeID) bool {
	if int(to) >= len(n.nodes) {
		return false
	}
	if n.downNode[from] || n.downNode[to] || n.downLink[[2]wire.NodeID{from, to}] {
		return false
	}
	if n.partition != nil && n.partition[from] != n.partition[to] {
		return false
	}
	return true
}

// send accounts, filters and schedules one message on the sender's shard
// engine. Cross-shard deliveries detour through the coordinator so they
// become visible only at window barriers; the per-shard network model is
// identical, so a cross-shard hop costs the same simulated latency as a
// same-shard one. The steady-state path is allocation-free: delivery goes
// through the engine's pooled AfterMsg events via the pre-bound deliverFn,
// and the common no-overrides case skips the nodeExtra lookups entirely.
func (n *SimNetwork) send(from, to wire.NodeID, msg wire.Message) error {
	src := n.shardOfNode(from)
	eng, rng := n.shardEng[src], n.shardRng[src]
	if int(to) >= len(n.nodes) {
		releaseMsg(msg)
		return fmt.Errorf("transport: unknown destination %v", to)
	}
	size := msg.EncodedSize()
	// Bytes leave the sender's NIC whether or not they arrive.
	if t := n.shardTraffic[src]; t != nil {
		t.Record(from, to, msg.Type(), size, eng.Now())
	}
	if n.wobs != nil {
		n.wobs[src].Sent(eng.Now(), from, to, msg.Type(), size)
	}
	if !n.Reachable(from, to) {
		releaseMsg(msg)
		return nil // silently lost: crashed endpoint, cut link or partition
	}
	if n.dropRate > 0 && !n.lossExempt[msg.Type()] && rng.Float64() < n.dropRate {
		releaseMsg(msg)
		return nil
	}
	delay := n.model.Delay(rng, size)
	if len(n.nodeExtra) > 0 {
		delay += n.nodeExtra[from] + n.nodeExtra[to]
	}
	if n.siteDelay > 0 && n.siteOf(from) != n.siteOf(to) {
		delay += n.siteDelay
	}
	if dst := n.shardOfNode(to); dst != src {
		n.se.SendCross(src, dst, eng.Now()+delay, n.deliverFn, uint64(from), uint64(to), msg)
	} else {
		eng.AfterMsg(delay, n.deliverFn, uint64(from), uint64(to), msg)
	}
	return nil
}

// deliver is the AfterMsg handler behind every in-flight message. Fault
// state is checked at fire time, exactly as the per-message closure used
// to: a node crashed while the message was in flight still swallows it.
// Delivery is a terminal point for pooled envelopes, handled or not.
func (n *SimNetwork) deliver(from, to uint64, msg any) {
	dst := n.nodes[to]
	m := msg.(wire.Message)
	if h := dst.handler; h != nil && !n.downNode[dst.id] {
		if n.wobs != nil {
			// The receive lands in the receiver's shard, on whose engine
			// goroutine this handler is already running.
			ctx := n.shardOfNode(dst.id)
			n.wobs[ctx].Received(n.shardEng[ctx].Now(), wire.NodeID(from), dst.id, m.Type(), m.EncodedSize())
		}
		h(wire.NodeID(from), m)
	}
	releaseMsg(m)
}

// releaseMsg returns a pooled envelope to its free list at a terminal point
// of one delivery attempt: dropped at send, swallowed at a downed receiver,
// or fully handled. Non-pooled messages are untouched.
func releaseMsg(msg wire.Message) {
	if r, ok := msg.(wire.Releasable); ok {
		r.Release()
	}
}

// SimEndpoint implements Endpoint on a SimNetwork.
type SimEndpoint struct {
	net     *SimNetwork
	id      wire.NodeID
	handler Handler
}

// ID implements Endpoint.
func (ep *SimEndpoint) ID() wire.NodeID { return ep.id }

// SetHandler implements Endpoint.
func (ep *SimEndpoint) SetHandler(h Handler) { ep.handler = h }

// Send implements Endpoint.
func (ep *SimEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	return ep.net.send(ep.id, to, msg)
}
