package harness

import (
	"fmt"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// DisseminationResult is everything a dissemination experiment measured.
type DisseminationResult struct {
	Params    Params
	Latencies *metrics.LatencyRecorder
	Traffic   *netmodel.Traffic

	// LeaderID and RegularID are the two peers whose bandwidth the
	// paper's Figures 6/9/10/11/14 plot.
	LeaderID  wire.NodeID
	RegularID wire.NodeID
	// NumBuckets is the series length at Params.Bucket granularity.
	NumBuckets int

	// BlockBytes is the encoded size of one block of the workload.
	BlockBytes int
	// BodyTransmissions counts full-block sends during dissemination
	// (Data + PullData + recovery batches), excluding orderer deliveries.
	BodyTransmissions uint64
	// RecoveryServed counts blocks that had to be fetched by the recovery
	// component (the enhanced paper runs never need it).
	RecoveryServed uint64
	// WallBlocks is how many blocks were fully disseminated to all peers.
	WallBlocks int
}

// RunDissemination builds a one-organization Network of Params.NumPeers
// peers over the calibrated LAN model, appends Params.NumBlocks blocks to
// the ordering service on the block interval (each streams to the leader
// peer), and measures per-peer/per-block dissemination latency and per-peer
// bandwidth.
func RunDissemination(p Params) (*DisseminationResult, error) {
	rec := metrics.NewLatencyRecorder()
	// leaderSeen[num] is the dissemination start: the leader's reception
	// of the block from the ordering service.
	leaderSeen := make(map[uint64]time.Duration, p.NumBlocks)
	received := make([]int, p.NumBlocks) // peers holding each block

	n, err := NewNetwork(NetworkParams{
		Seed:    p.Seed,
		Variant: p.Variant,
		Orgs:    []OrgSpec{{Peers: p.NumPeers, Enhanced: &p.Enhanced}},
		Bucket:  p.Bucket,
	}, WithNetworkCoreHook(func(_ int, core *gossip.Core) {
		self := core.ID()
		core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
			if self == 0 {
				// The leader is the dissemination origin: its reception
				// defines t=0 and is excluded from the latency CDFs.
				leaderSeen[b.Num] = at
			} else {
				start, ok := leaderSeen[b.Num]
				if !ok {
					// Block reached a peer before the leader (recovery
					// race); anchor at current time.
					start = at
					leaderSeen[b.Num] = start
				}
				rec.Record(b.Num, self, at-start)
			}
			if b.Num < uint64(len(received)) {
				received[b.Num]++
			}
		})
	}))
	if err != nil {
		return nil, err
	}
	engine, traffic := n.Engine, n.Traffic
	n.StartAll()

	// Background floor: the paper's ≈0.4 MB/s of non-dissemination system
	// traffic per peer, accounted once per simulated second.
	if p.BackgroundBytesPerSec > 0 {
		half := int(p.BackgroundBytesPerSec / 2)
		for _, id := range n.Orgs[0].Peers {
			id := id
			engine.Every(time.Second, func() {
				traffic.Record(id, id, wire.TypeAlive, half, engine.Now())
			})
		}
	}

	blocks := BuildChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed)
	for i, b := range blocks {
		b := b
		engine.At(time.Duration(i)*p.BlockInterval, func() { n.Append(b) })
	}

	end := time.Duration(p.NumBlocks-1)*p.BlockInterval + p.Tail
	n.RunUntil(end)
	n.StopAll()

	complete := 0
	for _, got := range received {
		if got == p.NumPeers {
			complete++
		}
	}
	res := &DisseminationResult{
		Params:            p,
		Latencies:         rec,
		Traffic:           traffic,
		LeaderID:          0,
		RegularID:         regularPeer(p.Seed, p.NumPeers),
		NumBuckets:        int(end/p.Bucket) + 1,
		BlockBytes:        wire.BlockEncodedSize(blocks[0]),
		BodyTransmissions: traffic.CountOf(wire.TypeData) + traffic.CountOf(wire.TypePullData),
		RecoveryServed:    traffic.CountOf(wire.TypeStateResponse),
		WallBlocks:        complete,
	}
	return res, nil
}

// regularPeer picks the seed's non-leader peer in [1, numPeers) whose
// bandwidth the figures plot beside the leader's, for any seed sign.
func regularPeer(seed int64, numPeers int) wire.NodeID {
	m := int64(numPeers - 1)
	r := seed % m
	if r < 0 {
		r += m
	}
	return wire.NodeID(1 + r)
}

// BuildChain constructs a hash-linked chain of blocks with the workload's
// transaction shape. Payload bytes are deterministic from the seed. Every
// block is sealed (wire.SealBlock), so it carries its own encoding.
func BuildChain(n, txPerBlock, payloadSize int, seed int64) []*ledger.Block {
	rng := sim.NewRand(sim.StreamSeed(seed, "chain"))
	blocks := make([]*ledger.Block, n)
	var prev *ledger.Block
	for i := 0; i < n; i++ {
		txs := make([]*ledger.Transaction, txPerBlock)
		for j := range txs {
			payload := make([]byte, payloadSize)
			for k := 0; k < len(payload); k += 64 {
				payload[k] = byte(rng.Intn(256))
			}
			key := fmt.Sprintf("asset-%d", rng.Intn(1000))
			rw := ledger.RWSet{
				Reads:  []ledger.KVRead{{Key: key, Version: ledger.Version{BlockNum: uint64(i)}}},
				Writes: []ledger.KVWrite{{Key: key, Value: payload[:16]}},
			}
			txs[j] = &ledger.Transaction{
				ID:        ledger.ProposalDigest(fmt.Sprintf("client-%d", j), "high-throughput", rw, payload),
				Client:    fmt.Sprintf("client-%d", j),
				Chaincode: "high-throughput",
				RWSet:     rw,
				Endorsements: []ledger.Endorsement{
					{Org: "orgA", Name: "endorser0", Sig: make([]byte, 64)},
				},
				Payload: payload,
			}
		}
		b := &ledger.Block{Num: uint64(i), Txs: txs, DataHash: ledger.ComputeDataHash(txs)}
		if prev != nil {
			b.PrevHash = prev.Hash()
		}
		b.Sig = make([]byte, 64)
		blocks[i] = wire.SealBlock(b)
		prev = b
	}
	return blocks
}
