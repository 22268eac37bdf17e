// Package original implements the stock Fabric gossip dissemination the
// paper evaluates as its baseline (§III-A): an infect-and-die push phase
// with a small batching timer, a periodic pull component that fetches
// missed blocks with a Hello → Digest → Request → Response exchange, and
// the shared recovery component (provided by the gossip core).
package original

import (
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Config holds the stock protocol's parameters. Defaults mirror Fabric
// v1.2.
type Config struct {
	// Fout is the push fan-out (Fabric PropagatePeerNum, default 3).
	Fout int
	// TPush is the push batching delay: first receptions are buffered and
	// flushed to the same random sample after TPush (Fabric's 10 ms
	// emitter). Zero flushes immediately.
	TPush time.Duration
	// PushBufferCap flushes the buffer early when it holds this many
	// blocks (Fabric's batch size). Zero means no cap.
	PushBufferCap int
	// Fin is the pull fan-out: how many random peers are engaged per pull
	// round (Fabric PullPeerNum, default 3).
	Fin int
	// TPull is the pull period (Fabric PullInterval, default 4 s).
	TPull time.Duration
	// DigestWindow bounds how many recent block numbers a pull digest
	// advertises.
	DigestWindow int
}

// DefaultConfig returns Fabric v1.2 defaults (paper §V-B).
func DefaultConfig() Config {
	return Config{
		Fout:          3,
		TPush:         10 * time.Millisecond,
		PushBufferCap: 10,
		Fin:           3,
		TPull:         4 * time.Second,
		DigestWindow:  100,
	}
}

// Protocol is the infect-and-die + pull disseminator.
type Protocol struct {
	cfg Config
	c   *gossip.Core

	// Push state: blocks waiting for the batching timer.
	pushBuf   []*ledger.Block
	pushTimer sim.Timer

	// Pull state.
	pullTimer sim.Timer
	nextNonce uint64
	// pending maps an outstanding nonce to the peer it was sent to.
	pending map[uint64]wire.NodeID
	// requested records when a block body was last requested via pull, to
	// avoid fetching the same body from several responders in one round.
	requested map[uint64]time.Duration

	// pullPeers and pushTargets are pullTick's and flushPush's reusable
	// sampling buffers. Neither is ever part of an outbound message.
	pullPeers   []wire.NodeID
	pushTargets []wire.NodeID

	stopped bool
}

// New returns an unstarted protocol instance.
func New(cfg Config) *Protocol {
	return &Protocol{
		cfg:       cfg,
		pending:   make(map[uint64]wire.NodeID),
		requested: make(map[uint64]time.Duration),
	}
}

// Name implements gossip.Protocol.
func (p *Protocol) Name() string { return "original" }

// Start implements gossip.Protocol.
func (p *Protocol) Start(c *gossip.Core) {
	p.c = c
	if p.cfg.TPull > 0 {
		p.pullTimer = c.Scheduler().After(p.pullDelay(), p.pullTick)
	}
}

// pullDelay randomizes each peer's pull phase so rounds are not
// synchronized across the network (each peer pulls on its own schedule, as
// in Fabric).
func (p *Protocol) pullDelay() time.Duration {
	return time.Duration(p.c.Rand().Int63n(int64(p.cfg.TPull))) + 1
}

// Stop implements gossip.Protocol.
func (p *Protocol) Stop() {
	p.stopped = true
	if p.pushTimer != nil {
		p.pushTimer.Stop()
	}
	if p.pullTimer != nil {
		p.pullTimer.Stop()
	}
}

// OnOrdererBlock implements gossip.Protocol: the leader peer stores the
// block and becomes the first infected peer.
func (p *Protocol) OnOrdererBlock(b *ledger.Block) {
	if p.c.AddBlock(b) {
		p.enqueuePush(b)
	}
}

// OnBlockStored implements gossip.Protocol. The stock protocol triggers
// pushes only from the push path itself (infect-and-die), so bodies
// arriving by pull or recovery are not re-pushed.
func (p *Protocol) OnBlockStored(*ledger.Block) {}

// Handle implements gossip.Protocol.
func (p *Protocol) Handle(from wire.NodeID, msg wire.Message) bool {
	switch m := msg.(type) {
	case *wire.Data:
		// Infect-and-die: push once upon first infection, then ignore
		// duplicates.
		if p.c.AddBlock(m.Block) {
			p.enqueuePush(m.Block)
		}
	case *wire.PullHello:
		p.servePullHello(from, m)
	case *wire.PullDigest:
		p.handlePullDigest(from, m)
	case *wire.PullRequest:
		p.servePullRequest(from, m)
	case *wire.PullData:
		p.c.AddBlock(m.Block) // no re-push (paper §III-A)
	default:
		return false
	}
	return true
}

// --- push (infect-and-die) ---

// enqueuePush buffers b and arms the batching timer. When the buffer
// flushes, every buffered block goes to the *same* fout random peers —
// exactly the randomness bias the paper's enhanced protocol removes by
// setting tpush = 0.
func (p *Protocol) enqueuePush(b *ledger.Block) {
	if p.stopped {
		return
	}
	p.pushBuf = append(p.pushBuf, b)
	if p.cfg.TPush <= 0 || (p.cfg.PushBufferCap > 0 && len(p.pushBuf) >= p.cfg.PushBufferCap) {
		p.flushPush()
	} else if p.pushTimer == nil {
		p.pushTimer = p.c.Scheduler().After(p.cfg.TPush, p.flushPush)
	}
}

func (p *Protocol) flushPush() {
	buf := p.pushBuf
	p.pushBuf = nil
	if p.pushTimer != nil {
		p.pushTimer.Stop()
		p.pushTimer = nil
	}
	if len(buf) == 0 {
		return
	}
	p.pushTargets = p.c.RandomPeersInto(p.cfg.Fout, p.pushTargets)
	for _, b := range buf {
		msg := &wire.Data{Block: b}
		for _, t := range p.pushTargets {
			p.c.Send(t, msg)
		}
	}
}

// --- pull ---

func (p *Protocol) pullTick() {
	if p.stopped {
		return
	}
	p.pullTimer = p.c.Scheduler().After(p.cfg.TPull, p.pullTick)
	p.pullPeers = p.c.RandomPeersInto(p.cfg.Fin, p.pullPeers)
	// Hellos go out in sampling order (a map here would randomize send
	// order and with it the transport's delay draws, breaking run-to-run
	// determinism).
	for _, q := range p.pullPeers {
		p.nextNonce++
		p.pending[p.nextNonce] = q
		p.c.Send(q, &wire.PullHello{Nonce: p.nextNonce})
	}
}

// servePullHello answers with the numbers of recent blocks we hold.
func (p *Protocol) servePullHello(from wire.NodeID, m *wire.PullHello) {
	height := p.c.Height()
	var lo uint64
	if w := uint64(p.cfg.DigestWindow); p.cfg.DigestWindow > 0 && height > w {
		lo = height - w
	}
	var nums []uint64
	// Advertise the consecutive prefix we can serve, plus any blocks
	// received out of order above it.
	for num := lo; ; num++ {
		if !p.c.HasBlock(num) {
			// Probe a bounded window above the gap for stray blocks.
			for extra := num + 1; extra < num+64; extra++ {
				if p.c.HasBlock(extra) {
					nums = append(nums, extra)
				}
			}
			break
		}
		nums = append(nums, num)
	}
	p.c.Send(from, &wire.PullDigest{Nonce: m.Nonce, Nums: nums})
}

// handlePullDigest requests the advertised bodies we lack and have not
// requested recently.
func (p *Protocol) handlePullDigest(from wire.NodeID, m *wire.PullDigest) {
	if q, ok := p.pending[m.Nonce]; !ok || q != from {
		return // unsolicited or stale digest
	}
	delete(p.pending, m.Nonce)
	now := p.c.Scheduler().Now()
	var want []uint64
	for _, num := range m.Nums {
		if p.c.HasBlock(num) {
			continue
		}
		if last, ok := p.requested[num]; ok && now-last < p.cfg.TPull {
			continue // outstanding request from this round
		}
		p.requested[num] = now
		want = append(want, num)
	}
	if len(want) > 0 {
		p.c.Send(from, &wire.PullRequest{Nonce: m.Nonce, Nums: want})
	}
}

func (p *Protocol) servePullRequest(from wire.NodeID, m *wire.PullRequest) {
	for _, num := range m.Nums {
		if b := p.c.Block(num); b != nil {
			p.c.Send(from, &wire.PullData{Nonce: m.Nonce, Block: b})
		}
	}
}
