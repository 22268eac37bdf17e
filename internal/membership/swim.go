package membership

import (
	"time"

	"fabricgossip/internal/wire"
)

// This file holds the SWIM-style extensions: the budgeted rumor queue
// behind piggybacked dissemination, the event-application state machine
// (with incarnation-ordered conflict resolution and self-refutation), and
// the periodic view shuffle. None of it runs — and none of it sends or
// draws randomness — unless the corresponding Config knobs are set.

// queueRumor enqueues ev for piggybacked retransmission. A rumor for the
// same peer and kind already queued is superseded in place when ev is
// fresher (budget reset: new information restarts its epidemic); an equal
// or fresher queued rumor absorbs ev. The queue is bounded by QueueCap;
// the front — where the most-retransmitted rumors age (see PiggybackOnto)
// — is dropped on overflow, so pressure sheds the rumors that already had
// their airtime, never the fresh ones.
func (v *View) queueRumor(ev wire.MemberEvent) {
	if v.cfg.PiggybackMax <= 0 {
		return
	}
	for i := range v.queue {
		q := &v.queue[i]
		if q.ev.Peer != ev.Peer || q.ev.Kind != ev.Kind {
			continue
		}
		if ev.Seq > q.ev.Seq {
			// Fresher information makes this rumor news again: a full
			// budget, and a move to the tail — the next-to-ship end —
			// rather than an in-place refresh at whatever aged position
			// the old copy occupied (where, under saturation, it would
			// never be selected and would be first in line for eviction).
			fresh := rumor{ev: ev, budget: v.cfg.PiggybackBudget}
			copy(v.queue[i:], v.queue[i+1:])
			v.queue[len(v.queue)-1] = fresh
		}
		return
	}
	if len(v.queue) >= v.cfg.QueueCap {
		copy(v.queue, v.queue[1:])
		v.queue = v.queue[:len(v.queue)-1]
	}
	v.queue = append(v.queue, rumor{ev: ev, budget: v.cfg.PiggybackBudget})
	v.eventsQueued++
}

// PiggybackOnto sends a bounded digest of queued rumors to the destination
// of an ordinary outgoing gossip message (gossip.Core calls it from its
// send path). With an empty queue — the steady state of a stable
// organization — it is a length check: no message, no allocation.
//
// Selection is newest-first (SWIM's least-retransmitted-first): each digest
// takes the queue's tail, where fresh rumors land, charges one transmission
// from each budget, drops exhausted rumors, and parks the survivors at the
// front. A refutation queued during a churn burst therefore ships on the
// very next message instead of waiting behind a backlog of aged rumors —
// under saturation it is the stale end of the queue that decays.
func (v *View) PiggybackOnto(to wire.NodeID) {
	if v.cfg.PiggybackMax <= 0 {
		return
	}
	if len(v.queue) == 0 {
		return
	}
	k := v.cfg.PiggybackMax
	if k > len(v.queue) {
		k = len(v.queue)
	}
	// The events slice is retained by the in-flight message (the simulated
	// transport shares message values by reference), so it cannot be a
	// reusable buffer; rumors are churn-proportional, so this allocation
	// never appears at steady state.
	events := make([]wire.MemberEvent, k)
	start := len(v.queue) - k
	live := start // survivors compacted to [start:live)
	for i := start; i < len(v.queue); i++ {
		events[i-start] = v.queue[i].ev
		v.queue[i].budget--
		if v.queue[i].budget > 0 {
			v.queue[live] = v.queue[i]
			live++
		}
	}
	// Park the surviving picked rumors at the front: the untouched prefix
	// shifts back, so the next send's tail holds different (or newer)
	// rumors.
	if survivors := live - start; survivors > 0 && start > 0 {
		tmp := make([]rumor, survivors)
		copy(tmp, v.queue[start:live])
		copy(v.queue[survivors:], v.queue[:start])
		copy(v.queue, tmp)
		v.queue = v.queue[:start+survivors]
	} else {
		v.queue = v.queue[:live]
	}
	v.eventsSent += uint64(k)
	v.host.Send(to, &wire.MemberEvents{Events: events})
}

// QueuedRumors returns the current rumor-queue length.
func (v *View) QueuedRumors() int {
	return len(v.queue)
}

// IsPayload reports whether the message type belongs to the membership
// plane (the types View.Handle claims).
func IsPayload(t wire.MsgType) bool {
	switch t {
	case wire.TypeMemberEvents, wire.TypeShuffleRequest, wire.TypeShuffleResponse:
		return true
	}
	return false
}

// Handle processes a membership payload, reporting whether the message type
// belonged to this subsystem. Transitions caused by applied events fire the
// OnTransition hook, and accusations against self latch for
// TakeAccusation.
//
// A view with every SWIM knob off claims the payload types but drops their
// content: a legacy peer in a mixed organization must not let a received
// suspicion push a peer into a state machine whose timeouts it never
// configured (a zero SuspectTimeout would turn it into an instant death
// contradicting the time-based predicates).
func (v *View) Handle(from wire.NodeID, msg wire.Message, now time.Duration) bool {
	if !v.cfg.Swim() {
		return IsPayload(msg.Type())
	}
	switch m := msg.(type) {
	case *wire.MemberEvents:
		if v.probePending && from == v.probeTarget {
			// A piggybacked digest is as direct as a shuffle ack: the
			// target is talking, so the outstanding probe must not turn
			// a dropped response into a false suspicion.
			v.probePending = false
		}
		v.apply(m.Events, now, true)
	case *wire.ShuffleRequest:
		if v.probePending && from == v.probeTarget {
			v.probePending = false // the target is probing us: direct evidence
		}
		v.apply(m.Entries, now, false)
		if v.host != nil {
			v.host.Send(from, &wire.ShuffleResponse{Entries: v.sample()})
		}
	case *wire.ShuffleResponse:
		if v.probePending && from == v.probeTarget {
			v.probePending = false // the probe's ack: the target lives
		}
		v.apply(m.Entries, now, false)
	default:
		return false
	}
	return true
}

// TakeAccusation consumes the latched self-accusation flag. The core
// answers a true return with an incarnation bump plus an immediate
// refutation heartbeat (SWIM's alive-with-higher-incarnation).
func (v *View) TakeAccusation() bool {
	accused := v.selfAccused
	v.selfAccused = false
	if accused {
		v.refutations++
	}
	return accused
}

// QueueSelfAlive queues a refutation rumor advertising self at the given
// (freshly bumped) sequence.
func (v *View) QueueSelfAlive(seq uint64) {
	if seq > v.selfSeq {
		v.selfSeq = seq
	}
	v.queueRumor(wire.MemberEvent{Peer: v.cfg.Self, Seq: seq, Kind: wire.EventAlive})
}

// apply merges a batch of remote membership events into the view, in order.
// Conflicts resolve by SWIM's incarnation rule on the heartbeat sequence:
// alive at seq s beats suspect/dead at s' < s; suspect at s >= s' overrides
// alive at s'; dead at s >= s' overrides both and only a strictly fresher
// alive (a restarted incarnation) reverses it. News — any entry that
// changed local state — re-enters the rumor queue, which is what makes the
// spread epidemic; known or stale entries are absorbed silently, which is
// what makes it terminate.
//
// relay marks events that arrived as piggybacked rumors: those also
// re-enter the queue on a pure sequence refresh (no state change), so a
// refutation keeps spreading through nodes that never doubted the peer —
// without it the rumor dies exactly where the view is healthy, and the
// few views that did declare the peer dead may never see the fresher
// sequence that would revive them. Shuffle samples stay quiet on refresh:
// they carry every entry every few rounds, so relaying them would flood
// the queue with non-news.
//
// The OnTransition hook fires for the batch's transitions only after the
// whole batch is merged, so it observes the final view.
func (v *View) apply(events []wire.MemberEvent, now time.Duration, relay bool) {
	var fired []transition
	for _, e := range events {
		if e.Peer == v.cfg.Self {
			// Only explicit suspicions and death declarations are
			// accusations; unknown forward-compatibility kinds must stay
			// ignored (wire.MemberEventKind's contract), not trigger
			// incarnation bumps and refutation floods.
			accusing := e.Kind == wire.EventSuspect || e.Kind == wire.EventDead
			if accusing && e.Seq >= v.selfSeq {
				v.selfAccused = true
			}
			continue
		}
		if t, changed := v.applyOne(e, now, relay); changed {
			v.eventsApplied++
			if t.fire {
				fired = append(fired, t)
			}
		}
	}
	if fn := v.onTransition; fn != nil {
		for _, t := range fired {
			fn(t.peer, t.alive)
		}
	}
}

// transition is one live/dead flip produced by applyOne, fired after its
// batch is merged.
type transition struct {
	peer  wire.NodeID
	alive bool
	fire  bool
}

// applyOne merges one event. Returns the transition to fire (if any) and
// whether local state changed.
func (v *View) applyOne(e wire.MemberEvent, now time.Duration, relay bool) (transition, bool) {
	p := e.Peer
	i := v.idxOf(p)
	tracked := i >= 0
	var st status
	var seq uint64
	if tracked {
		st = v.status[i]
		seq = v.lastSeq[i]
	}
	switch e.Kind {
	case wire.EventAlive:
		if !tracked {
			i = v.track(p)
			v.lastSeq[i] = e.Seq
			v.lastSeen[i] = now
			v.status[i] = statusLive
			v.queueRumor(e)
			return transition{peer: p, alive: true, fire: true}, true
		}
		if e.Seq <= seq {
			return transition{}, false
		}
		v.lastSeq[i] = e.Seq
		v.lastSeen[i] = now
		switch st {
		case statusLive:
			// A pure freshness refresh: relay it only if it arrived as a
			// rumor (rumors exist because somebody's state changed — a
			// refutation must reach the views that believed the claim,
			// through the many views that never did).
			if relay {
				v.queueRumor(e)
			}
			return transition{}, true
		case statusSuspect:
			v.suspectAt[i] = 0
			v.status[i] = statusLive
			v.queueRumor(e) // a refutation others may still need
			return transition{}, true
		default: // statusDead: a restarted incarnation rejoined
			v.status[i] = statusLive
			v.queueRumor(e)
			return transition{peer: p, alive: true, fire: true}, true
		}
	case wire.EventSuspect:
		if !tracked {
			// Learning of a peer through its suspicion still grows the
			// view: the peer is a member, just one somebody could not
			// reach. It enters as a suspect (counted alive) and can be
			// refuted like any other.
			i = v.track(p)
			v.lastSeq[i] = e.Seq
			v.lastSeen[i] = now
			v.status[i] = statusSuspect
			v.suspectAt[i] = now
			v.queueRumor(e)
			return transition{peer: p, alive: true, fire: true}, true
		}
		if e.Seq < seq {
			// We hold fresher alive evidence: refute on the peer's behalf.
			if st == statusLive {
				v.queueRumor(wire.MemberEvent{Peer: p, Seq: seq, Kind: wire.EventAlive})
			}
			return transition{}, false
		}
		switch st {
		case statusLive:
			v.lastSeq[i] = e.Seq
			v.status[i] = statusSuspect
			v.suspectAt[i] = now
			v.queueRumor(e)
			return transition{}, true
		case statusSuspect:
			if e.Seq > seq {
				v.lastSeq[i] = e.Seq
				return transition{}, true
			}
			return transition{}, false
		default: // statusDead is final at this incarnation
			return transition{}, false
		}
	case wire.EventDead:
		if !tracked {
			// Record the death so a stale alive rumor cannot later insert
			// the peer as live, but fire no transition: the peer was never
			// in this view.
			i = v.track(p)
			v.lastSeq[i] = e.Seq
			v.lastSeen[i] = now
			v.status[i] = statusDead
			v.queueRumor(e)
			return transition{}, true
		}
		if e.Seq < seq {
			if st == statusLive {
				v.queueRumor(wire.MemberEvent{Peer: p, Seq: seq, Kind: wire.EventAlive})
			}
			return transition{}, false
		}
		if st == statusDead {
			return transition{}, false
		}
		v.lastSeq[i] = e.Seq
		v.suspectAt[i] = 0
		v.status[i] = statusDead
		v.queueRumor(e)
		return transition{peer: p, alive: false, fire: true}, true
	}
	return transition{}, false // unknown kind: forward-compatibility, ignore
}

// sample builds one shuffle payload: self at its current incarnation,
// followed by up to ShuffleSample-1 view entries selected by rotating a
// cursor through the tracked slice — consecutive shuffles systematically
// cover the whole view. Dead entries are included (spreading declared
// deaths is as important as spreading liveness).
func (v *View) sample() []wire.MemberEvent {
	k := v.cfg.ShuffleSample - 1
	if k > len(v.tracked) {
		k = len(v.tracked)
	}
	out := make([]wire.MemberEvent, 0, k+1)
	out = append(out, wire.MemberEvent{Peer: v.cfg.Self, Seq: v.selfSeq, Kind: wire.EventAlive})
	if len(v.tracked) == 0 {
		return out
	}
	for i := 0; i < k; i++ {
		idx := v.shufCursor % len(v.tracked)
		p := v.tracked[idx]
		v.shufCursor = (v.shufCursor + 1) % len(v.tracked)
		ev := wire.MemberEvent{Peer: p, Seq: v.lastSeq[idx]}
		switch v.status[idx] {
		case statusSuspect:
			ev.Kind = wire.EventSuspect
		case statusDead:
			ev.Kind = wire.EventDead
		default:
			ev.Kind = wire.EventAlive
		}
		out = append(out, ev)
	}
	return out
}

// ShuffleTick runs one view-shuffle round: it picks one uniformly random
// peer currently believed alive and sends it a sample of the local view;
// the peer merges it and answers with its own. An empty view — the cold
// start before any heartbeat arrived — skips the round without touching
// the random stream, so the draw sequence depends only on how many rounds
// found a target.
//
// The exchange doubles as SWIM's failure-detector probe: the previous
// round's target drew a request, and if neither its response nor any other
// direct evidence arrived by now, the target becomes a suspect and its
// suspicion is gossiped — the peer can still refute by bumping its
// incarnation before SuspectTimeout declares it dead. One probe per node
// per round spreads the detection duty evenly: every peer is probed about
// once a round by the aggregate, no matter how large the organization.
func (v *View) ShuffleTick(now time.Duration) {
	if v.cfg.ShuffleInterval <= 0 || v.host == nil {
		return
	}
	if v.probePending {
		v.probePending = false
		p := v.probeTarget
		if pi := v.idxOf(p); pi >= 0 && v.status[pi] == statusLive {
			v.status[pi] = statusSuspect
			v.suspectAt[pi] = now
			v.queueRumor(wire.MemberEvent{Peer: p, Seq: v.lastSeq[pi], Kind: wire.EventSuspect})
		}
	}
	alive := 0
	for i := range v.tracked {
		if v.aliveIdx(i, now) {
			alive++
		}
	}
	if alive == 0 {
		return
	}
	idx := v.host.Rand().Intn(alive)
	var target wire.NodeID
	for i, p := range v.tracked {
		if !v.aliveIdx(i, now) {
			continue
		}
		if idx == 0 {
			target = p
			break
		}
		idx--
	}
	v.probeTarget = target
	v.probePending = true
	v.host.Send(target, &wire.ShuffleRequest{Entries: v.sample()})
}
