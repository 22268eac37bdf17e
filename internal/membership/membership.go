// Package membership is the gossip layer's membership plane, carved out of
// the core so both dissemination protocols share one engine (paper §III-A:
// "peers use gossip to build and maintain a local view of other peers in
// the network"). A View tracks which peers of the organization are believed
// alive from the periodic Alive heartbeats, determines the organization's
// dynamic-election leader (the lowest-id live peer), and — when the
// SWIM-style extensions are enabled — keeps that view dense even at
// thousand-peer scale, where fixed heartbeat fan-out alone yields only a
// sparse sample:
//
//   - Piggybacked dissemination: membership events (joins, suspicions,
//     deaths, refutations) are queued as budgeted rumors and ride on the
//     destinations of ordinary gossip traffic as bounded wire.MemberEvents
//     digests, so membership knowledge spreads epidemically with constant
//     per-message overhead instead of only via direct heartbeats.
//   - Suspicion: a peer whose heartbeats lapse enters a suspect state that
//     any fresher alive evidence (a heartbeat, a piggybacked refutation, a
//     shuffle entry) clears before the peer is declared dead — killing the
//     false-dead flapping that per-pair heartbeat freshness produces under
//     WAN delay and loss. The heartbeat sequence doubles as SWIM's
//     incarnation number; a peer that learns it is being suspected bumps it
//     and floods a refutation.
//   - View shuffling: a periodic pairwise exchange of view samples
//     (wire.ShuffleRequest/ShuffleResponse) that systematically refreshes
//     every entry, so isolated corners of a large organization converge.
//
// The View talks to its peer through the narrow Host interface — message
// sending and the deterministic random stream — so it runs identically
// under gossip.Core on the simulated and TCP runtimes, and unit tests can
// drive it with a stub host. With the extensions disabled (the default
// configuration) the View reproduces the legacy heartbeat-expiration
// behavior: no extra messages, no extra random draws, identical transition
// timing. The one deliberate legacy-mode change is the Dead predicate,
// which now agrees with Alive at every instant instead of lagging until
// the next sweep (see Dead); the catalog's golden fingerprints confirm no
// observable drift from it.
package membership

import (
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Host is the narrow view of a peer the membership engine needs.
// gossip.Core implements it.
type Host interface {
	// Send transmits a membership payload to a peer (loss-tolerant).
	// Implementations must hand the message straight to the transport —
	// not through a piggybacking send path — or every shuffle and digest
	// would recursively piggyback onto itself.
	Send(to wire.NodeID, msg wire.Message)
	// Rand returns the peer's deterministic random stream (shuffle target
	// draws). Never called unless shuffling is enabled, so legacy
	// configurations consume the stream exactly as before.
	Rand() *sim.Rand
}

// Config parameterizes one peer's membership view. The zero values of the
// SWIM knobs reproduce the legacy heartbeat-expiration behavior exactly.
type Config struct {
	// Self is this peer's node id; it is always considered alive.
	Self wire.NodeID
	// Expiration is how long a peer stays live after its last heartbeat
	// (legacy mode), or how long before it becomes a suspect (suspicion
	// mode).
	Expiration time.Duration

	// SuspectTimeout, when positive, inserts the SWIM suspect state
	// before death: a suspected peer stays (refutably) alive for this
	// long and is declared dead only if no fresher alive evidence
	// arrives. Suspicion originates from failed shuffle probes when
	// shuffling is enabled (heartbeat lapse then means nothing — the
	// fan-out is a sparse sample), and from heartbeat lapse otherwise.
	// Zero keeps the legacy lapse-is-death behavior with every predicate
	// time-based — unless piggybacking or shuffling is enabled, which
	// defaults the timeout to 3x Expiration (those mechanisms put peers
	// in the suspect state, so the timeout must exist).
	SuspectTimeout time.Duration
	// PiggybackMax bounds how many queued membership rumors one outgoing
	// digest carries. Zero disables piggybacked dissemination entirely.
	PiggybackMax int
	// PiggybackBudget is how many times one rumor is retransmitted before
	// it is dropped from the queue. Zero defaults to 4 when piggybacking
	// is enabled — small, because every view that finds a rumor newsworthy
	// relays it with a fresh budget, so the spread is epidemic and a large
	// per-view budget only slows the queue's drain after a churn burst.
	PiggybackBudget int
	// ShuffleInterval is the period of the view-shuffle exchange (the
	// timer is armed by the core). Zero disables shuffling.
	ShuffleInterval time.Duration
	// ShuffleSample is how many view entries one shuffle message carries
	// (default 64).
	ShuffleSample int
	// QueueCap bounds the rumor queue; the oldest rumor is dropped on
	// overflow (default 1024).
	QueueCap int
}

func (c Config) withDefaults() Config {
	if c.PiggybackMax > 0 && c.PiggybackBudget == 0 {
		c.PiggybackBudget = 4
	}
	if c.ShuffleSample == 0 {
		c.ShuffleSample = 64
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	// Enabling any SWIM mechanism pulls in the whole SWIM state machine:
	// shuffle probes and piggybacked events put peers in the suspect and
	// dead states, so the suspect timeout must exist — a zero timeout
	// would declare a suspect dead at the next sweep (one lost shuffle
	// reply killing a healthy peer) while the time-based predicates still
	// counted it alive.
	if (c.PiggybackMax > 0 || c.ShuffleInterval > 0) && c.SuspectTimeout == 0 {
		c.SuspectTimeout = 3 * c.Expiration
		if c.SuspectTimeout == 0 {
			c.SuspectTimeout = 30 * time.Second
		}
	}
	return c
}

// Swim reports whether any of the SWIM extensions is enabled.
func (c Config) Swim() bool {
	return c.SuspectTimeout > 0 || c.PiggybackMax > 0 || c.ShuffleInterval > 0
}

// peer states. A peer absent from the status map has never been observed.
type status uint8

const (
	statusLive status = iota + 1
	// statusSuspect marks a lapsed peer awaiting refutation (suspicion
	// mode only). Suspects still count as alive — SWIM treats suspected
	// members as members until the timeout confirms them dead.
	statusSuspect
	statusDead
)

// Stats is a point-in-time snapshot of one view's counters, for report
// sections and tests.
type Stats struct {
	// Known / Live / Suspects / Dead partition the tracked peers (self
	// excluded; Known is their sum).
	Known    int
	Live     int
	Suspects int
	Dead     int
	// Queued is the current rumor-queue length; EventsQueued / EventsSent
	// / EventsApplied count rumors entering the queue, event entries sent
	// in digests, and received entries that changed local state.
	Queued        int
	EventsQueued  uint64
	EventsSent    uint64
	EventsApplied uint64
	// Refutations counts self-accusations answered with an incarnation
	// bump; DeadDeclared counts local suspicion timeouts.
	Refutations  uint64
	DeadDeclared uint64
}

// View tracks which peers of the organization are believed alive. It runs
// on its peer's scheduler goroutine (see sim.Scheduler).
type View struct {
	cfg  Config
	host Host

	// tracked holds every peer ever observed, in ascending id order: the
	// deterministic iteration order for sweeps and samples, and the
	// allocation-free scan behind Leader (the lowest live id is almost
	// always found in the first probe). Per-peer state is dense: lastSeen,
	// lastSeq, status and suspectAt are parallel slices indexed by the
	// peer's position in tracked — a few words per peer instead of four
	// map entries, which is the difference between megabytes and hundreds
	// of megabytes of tracking state across a 10k-peer organization, and
	// no map iteration anywhere near the deterministic streams.
	tracked  []wire.NodeID
	lastSeen []time.Duration
	lastSeq  []uint64
	status   []status
	// suspectAt[i] is when suspect tracked[i] entered suspicion (zero when
	// tracked[i] is not currently a suspect).
	suspectAt []time.Duration
	// selfSeq mirrors the core's heartbeat sequence (SWIM incarnation):
	// shuffle samples advertise it, and accusations at or above it flag a
	// refutation.
	selfSeq uint64
	// selfAccused latches that a suspect/dead claim about self arrived;
	// the core consumes it and answers with an incarnation bump.
	selfAccused bool

	// queue holds the budgeted piggyback rumors, oldest first.
	queue []rumor
	// shufCursor rotates sample selection through tracked so consecutive
	// shuffles cover the whole view instead of resampling a prefix.
	shufCursor int
	// probeTarget/probePending track the outstanding shuffle probe: the
	// shuffle exchange doubles as SWIM's ping, so a request that draws no
	// response (and no other direct evidence) by the next shuffle round
	// makes the target a suspect. This keeps failure-detection load O(1)
	// per node per round — per-pair heartbeat freshness cannot work when
	// the fan-out is a sparse sample of a thousand-peer organization.
	probeTarget  wire.NodeID
	probePending bool

	onTransition func(peer wire.NodeID, alive bool)

	eventsQueued  uint64
	eventsSent    uint64
	eventsApplied uint64
	refutations   uint64
	deadDeclared  uint64
}

// rumor is one queued membership event with its remaining retransmit
// budget.
type rumor struct {
	ev     wire.MemberEvent
	budget int
}

// New creates a view for cfg.Self. host may be nil when the SWIM
// extensions are disabled (legacy mode never sends).
func New(cfg Config, host Host) *View {
	return &View{cfg: cfg.withDefaults(), host: host}
}

// OnTransition installs the hook fired for live/dead transitions caused by
// applying piggybacked or shuffled events (Observe and Sweep report their
// transitions through return values instead, preserving the legacy call
// pattern). The hook runs once the whole batch is merged and must not call
// back into the view. Must be set before Start.
func (v *View) OnTransition(fn func(peer wire.NodeID, alive bool)) { v.onTransition = fn }

// Config returns the view's configuration (after defaulting).
func (v *View) Config() Config { return v.cfg }

// NoteSelfSeq records the core's current heartbeat sequence so shuffle
// samples and refutations advertise fresh incarnations.
func (v *View) NoteSelfSeq(seq uint64) {
	if seq > v.selfSeq {
		v.selfSeq = seq
	}
}

// track inserts peer into the sorted tracked slice and opens a zeroed slot
// at the same position in every parallel state slice, returning the index.
// Caller guarantees the peer is not yet tracked.
func (v *View) track(peer wire.NodeID) int {
	lo, hi := 0, len(v.tracked)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.tracked[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	v.tracked = append(v.tracked, 0)
	copy(v.tracked[lo+1:], v.tracked[lo:])
	v.tracked[lo] = peer
	v.lastSeen = append(v.lastSeen, 0)
	copy(v.lastSeen[lo+1:], v.lastSeen[lo:])
	v.lastSeen[lo] = 0
	v.lastSeq = append(v.lastSeq, 0)
	copy(v.lastSeq[lo+1:], v.lastSeq[lo:])
	v.lastSeq[lo] = 0
	v.status = append(v.status, 0)
	copy(v.status[lo+1:], v.status[lo:])
	v.status[lo] = 0
	v.suspectAt = append(v.suspectAt, 0)
	copy(v.suspectAt[lo+1:], v.suspectAt[lo:])
	v.suspectAt[lo] = 0
	return lo
}

// idxOf returns peer's index into tracked (and the parallel state slices),
// or -1 if the peer was never observed.
func (v *View) idxOf(peer wire.NodeID) int {
	lo, hi := 0, len(v.tracked)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.tracked[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.tracked) && v.tracked[lo] == peer {
		return lo
	}
	return -1
}

// Observe records a direct heartbeat from peer with the given sequence
// number at the given time, reporting whether it made the peer newly live
// (a dead-to-live transition). Stale (replayed or reordered) heartbeats
// with sequence numbers at or below the freshest seen are ignored, so a
// dead peer cannot be resurrected by an old message floating in the
// network. In suspicion mode a heartbeat from a suspect clears the
// suspicion (a refutation, not a transition: suspects never left the live
// view) and re-gossips the peer's freshness.
func (v *View) Observe(peer wire.NodeID, seq uint64, at time.Duration) bool {
	if peer == v.cfg.Self {
		return false
	}
	i := v.idxOf(peer)
	if i >= 0 && seq <= v.lastSeq[i] {
		return false
	}
	tracked := i >= 0
	var st status
	if tracked {
		st = v.status[i]
	} else {
		i = v.track(peer)
	}
	v.lastSeq[i] = seq
	v.lastSeen[i] = at
	v.status[i] = statusLive
	becameLive := !tracked || st == statusDead
	if v.cfg.Swim() {
		if v.probePending && peer == v.probeTarget {
			v.probePending = false // direct evidence: the probe target lives
		}
		if st == statusSuspect {
			v.suspectAt[i] = 0
			// Direct evidence refuting a suspicion is worth re-gossiping:
			// other peers may still hold the suspect claim.
			v.queueRumor(wire.MemberEvent{Peer: peer, Seq: seq, Kind: wire.EventAlive})
		} else if becameLive {
			// A join or rejoin is news the rest of the organization only
			// samples sparsely; spread it.
			v.queueRumor(wire.MemberEvent{Peer: peer, Seq: seq, Kind: wire.EventAlive})
		}
	}
	return becameLive
}

// Sweep advances the state machine at time now and returns the peers
// declared dead since the previous sweep, in ascending id order. Call it
// periodically; Observe reports the opposite transition.
//
// Legacy mode: peers whose heartbeats lapsed past Expiration die
// immediately (the old Expire behavior). Suspicion mode with shuffling
// enabled: silence alone never kills — a live peer stays live until a
// failed probe (ShuffleTick) or a gossiped suspicion puts it in the
// suspect state. Suspicion without shuffling (no prober to originate
// suspicions) falls back to lapse-based suspicion: a lapsed live peer
// becomes a refutable suspect here. Either way, a suspect whose
// SuspectTimeout elapses without refutation is declared dead, its death
// gossiped to the rest of the organization.
func (v *View) Sweep(now time.Duration) []wire.NodeID {
	var dead []wire.NodeID
	suspicion := v.cfg.SuspectTimeout > 0
	probing := v.cfg.ShuffleInterval > 0
	for i, p := range v.tracked {
		switch v.status[i] {
		case statusLive:
			if suspicion && probing {
				// Per-pair heartbeat freshness is a sparse sample of a
				// large organization: lapse means nothing here. Probes
				// carry the failure-detection duty instead.
				continue
			}
			if now-v.lastSeen[i] <= v.cfg.Expiration {
				continue
			}
			if suspicion {
				// No prober to originate suspicion (shuffling disabled),
				// so lapse must: without this, a crashed peer would stay
				// live forever in this configuration.
				v.status[i] = statusSuspect
				v.suspectAt[i] = now
				v.queueRumor(wire.MemberEvent{Peer: p, Seq: v.lastSeq[i], Kind: wire.EventSuspect})
				continue
			}
			v.status[i] = statusDead
			dead = append(dead, p)
		case statusSuspect:
			if now-v.suspectAt[i] <= v.cfg.SuspectTimeout {
				continue
			}
			v.suspectAt[i] = 0
			v.status[i] = statusDead
			v.deadDeclared++
			dead = append(dead, p)
			v.queueRumor(wire.MemberEvent{Peer: p, Seq: v.lastSeq[i], Kind: wire.EventDead})
		}
	}
	return dead
}

// aliveIdx is the one liveness predicate every query shares,
// answering for tracked[i]. Legacy mode is time-based: alive means a
// heartbeat within Expiration — the moment a peer lapses it stops being
// alive and becomes dead, with no window where the two disagree. Suspicion
// mode is state-based: live and suspect count as alive, only a declared
// death removes a peer from the view (per-pair heartbeat freshness is
// meaningless when the fan-out is a sparse sample of a large
// organization). Callers answer false for untracked peers (idxOf < 0).
func (v *View) aliveIdx(i int, now time.Duration) bool {
	if v.cfg.SuspectTimeout > 0 {
		st := v.status[i]
		return st == statusLive || st == statusSuspect
	}
	return now-v.lastSeen[i] <= v.cfg.Expiration
}

// Alive reports whether peer is believed alive at time now. Self is always
// alive.
func (v *View) Alive(peer wire.NodeID, now time.Duration) bool {
	if peer == v.cfg.Self {
		return true
	}
	i := v.idxOf(peer)
	return i >= 0 && v.aliveIdx(i, now)
}

// Dead reports whether the view considers peer dead at time now: it was
// observed once and is no longer alive. Peers never observed are not dead —
// with a sparse heartbeat sample most live peers have simply never been
// heard from. Dead is the exact complement of Alive over tracked peers
// (both answer from the same predicate; the legacy split where a lapsed
// peer was neither alive nor dead until the next sweep is gone).
func (v *View) Dead(peer wire.NodeID, now time.Duration) bool {
	if peer == v.cfg.Self {
		return false
	}
	i := v.idxOf(peer)
	return i >= 0 && !v.aliveIdx(i, now)
}

// Live returns the sorted ids of all peers believed alive at now,
// including self. Hot paths use LiveInto with a reusable buffer instead.
func (v *View) Live(now time.Duration) []wire.NodeID {
	return v.LiveInto(nil, now)
}

// LiveInto is Live appending into buf's backing array (grown as needed):
// the caller owns buf exclusively and the returned slice aliases it.
func (v *View) LiveInto(buf []wire.NodeID, now time.Duration) []wire.NodeID {
	out := buf[:0]
	selfDone := false
	for i, p := range v.tracked {
		if !selfDone && v.cfg.Self < p {
			out = append(out, v.cfg.Self)
			selfDone = true
		}
		if v.aliveIdx(i, now) {
			out = append(out, p)
		}
	}
	if !selfDone {
		out = append(out, v.cfg.Self)
	}
	return out
}

// Leader returns the dynamic-election leader: the lowest-id live peer
// (self counts). This is the convergence point of Fabric's leader election
// once heartbeats have propagated. The scan walks the sorted tracked slice
// and stops at self, so the steady state answers from the first probe with
// zero allocations (the live-minimum is effectively tracked by the sorted
// order).
func (v *View) Leader(now time.Duration) wire.NodeID {
	for i, p := range v.tracked {
		if p >= v.cfg.Self {
			break
		}
		if v.aliveIdx(i, now) {
			return p
		}
	}
	return v.cfg.Self
}

// IsLeader reports whether self currently believes it is the leader.
func (v *View) IsLeader(now time.Duration) bool {
	return v.Leader(now) == v.cfg.Self
}

// Stats snapshots the view's counters.
func (v *View) Stats() Stats {
	s := Stats{
		Known:         len(v.tracked),
		Queued:        len(v.queue),
		EventsQueued:  v.eventsQueued,
		EventsSent:    v.eventsSent,
		EventsApplied: v.eventsApplied,
		Refutations:   v.refutations,
		DeadDeclared:  v.deadDeclared,
	}
	for i := range v.tracked {
		switch v.status[i] {
		case statusLive:
			s.Live++
		case statusSuspect:
			s.Suspects++
		case statusDead:
			s.Dead++
		}
	}
	return s
}
