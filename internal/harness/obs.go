package harness

import (
	"fmt"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/transport"
)

// ObsContexts returns the number of observability emission contexts the
// network needs: one per organization shard plus the ordering shard plus
// the control plane in sharded mode, or a single context sequentially.
// This file is the one owner of the layout; the scenario runner indexes
// its obs.Tracer buffers and registries through these accessors.
func (n *Network) ObsContexts() int {
	if n.se != nil {
		return len(n.Orgs) + 2
	}
	return 1
}

// OrdObsContext returns the emission-context index owning the ordering
// service (consenter Raft nodes, order services, the deliver pump).
func (n *Network) OrdObsContext() int {
	if n.se != nil {
		return len(n.Orgs)
	}
	return 0
}

// OrgObsContext returns the emission-context index owning an org's peers.
func (n *Network) OrgObsContext(org int) int {
	if n.se != nil {
		return org
	}
	return 0
}

// CtlObsContext returns the emission-context index of the control plane
// (scenario actions, ordering-service deliveries, barriers): the last one.
func (n *Network) CtlObsContext() int { return n.ObsContexts() - 1 }

// AttachObs wires the observability plane into the network: per-context
// wire observers on the transport (sends in the sender's context,
// receives in the receiver's) and Raft log-append trace points on the
// consenter cluster. regs and traces are indexed by emission context
// (ObsContexts entries); either may be nil to skip that half, and nil
// entries skip individual contexts. Call after NewNetwork, before
// StartAll. The instruments and trace points are passive — they draw no
// randomness and schedule no events — so attaching them leaves the run's
// event lineage, and therefore its fingerprint, untouched.
func (n *Network) AttachObs(regs []*obs.Registry, traces []*obs.ShardTrace) {
	nctx := n.ObsContexts()
	if regs != nil && len(regs) != nctx {
		panic(fmt.Sprintf("harness: %d obs registries for %d contexts", len(regs), nctx))
	}
	if traces != nil && len(traces) != nctx {
		panic(fmt.Sprintf("harness: %d obs traces for %d contexts", len(traces), nctx))
	}
	pick := func(i int) (*obs.Registry, *obs.ShardTrace) {
		var r *obs.Registry
		var t *obs.ShardTrace
		if regs != nil {
			r = regs[i]
		}
		if traces != nil {
			t = traces[i]
		}
		return r, t
	}

	// Transport contexts are the shard engines: 1 sequentially, NumShards
	// (orgs + ordering) sharded. The control context never touches a NIC.
	nw := 1
	if n.se != nil {
		nw = n.se.NumShards()
	}
	wobs := make([]*transport.WireObs, nw)
	for i := range wobs {
		r, t := pick(i)
		wobs[i] = transport.NewWireObs(r, t)
	}
	n.Net.SetObs(wobs)

	// Consenter Raft log growth lands in the ordering context, whose
	// engine goroutine runs every consenter callback.
	if _, ordTrace := pick(n.OrdObsContext()); ordTrace != nil && n.cluster != nil {
		for i, node := range n.cluster.nodes {
			id := int32(n.cluster.eps[i].ID())
			node.OnAppend(func(index, term uint64) {
				ordTrace.Emit(obs.Event{
					At: n.ordEngine.Now(), Kind: obs.EvAppend,
					Node: id, Peer: -1, Num: index, Aux: term,
				})
			})
		}
	}
}
