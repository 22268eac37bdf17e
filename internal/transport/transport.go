// Package transport connects protocol nodes to each other. Protocol code is
// written against the Endpoint interface only; the package provides two
// implementations with identical semantics:
//
//   - SimNetwork delivers messages through the discrete-event engine with
//     delays drawn from a netmodel.Model, recording every transmission in a
//     netmodel.Traffic. All experiments run on it.
//   - TCPEndpoint ships real bytes over localhost/LAN TCP connections for
//     live deployments (cmd/gossipnet), driven by a sim.RealScheduler
//     event loop.
//
// Both are asynchronous and unreliable-by-contract: Send never blocks on
// the receiver and delivery is not acknowledged, matching the gossip
// layer's assumptions.
package transport

import (
	"fabricgossip/internal/wire"
)

// Handler receives messages delivered to an endpoint. Both networks invoke
// it on the receiving node's scheduler goroutine (see sim.Scheduler): the
// engine's for SimNetwork, the event loop's for TCPEndpoint.
type Handler func(from wire.NodeID, msg wire.Message)

// Endpoint is a node's attachment to a network.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() wire.NodeID
	// Send transmits msg to the given node. It returns an error only for
	// local problems (unknown destination, closed endpoint); in-flight
	// loss is silent, as on a real network.
	Send(to wire.NodeID, msg wire.Message) error
	// SetHandler installs the message handler. It must be called before
	// any message can be delivered.
	SetHandler(h Handler)
}
