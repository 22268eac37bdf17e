package gossip_test

import (
	"testing"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// Both dissemination protocols run unchanged on the live runtime: every
// peer's protocol code on one RealScheduler event loop, frames over
// loopback TCP. Every peer must store every block, and the enhanced
// protocol's pooled envelopes must all be back in their pools — the TCP
// transport releases each one as soon as it is encoded. Under -race this
// also proves the protocol cores need no locks on the live runtime.
func TestTCPLoopbackDissemination(t *testing.T) {
	const nPeers, nBlocks = 8, 4
	for _, tc := range []struct {
		name  string
		proto func() gossip.Protocol
	}{
		{"original", func() gossip.Protocol {
			cfg := original.DefaultConfig()
			cfg.TPull = 200 * time.Millisecond
			return original.New(cfg)
		}},
		{"enhanced", func() gossip.Protocol {
			cfg, err := enhanced.ConfigFor(nPeers, 2, 1e-6, 2)
			if err != nil {
				t.Fatal(err)
			}
			return enhanced.New(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewRealScheduler()
			defer loop.Close()
			book := transport.StaticAddressBook{}
			eps := make([]*transport.TCPEndpoint, nPeers+1) // the last plays the orderer
			for i := range eps {
				ep, err := transport.ListenTCP(wire.NodeID(i), "127.0.0.1:0", book, loop, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()
				eps[i] = ep
				book[wire.NodeID(i)] = ep.Addr()
			}
			ids := make([]wire.NodeID, nPeers)
			for i := range ids {
				ids[i] = wire.NodeID(i)
			}

			cores := make([]*gossip.Core, nPeers)
			received := 0 // loop-owned
			done := make(chan struct{})
			loop.Do(func() {
				for i := range cores {
					cfg := gossip.DefaultConfig(ids[i], ids)
					cfg.StateInfoInterval = 100 * time.Millisecond
					cfg.AliveInterval = 200 * time.Millisecond
					cfg.RecoveryInterval = 300 * time.Millisecond
					cores[i] = gossip.New(cfg, eps[i], loop, sim.NewRand(int64(i)+1), tc.proto())
					cores[i].OnFirstReception(func(*ledger.Block, time.Duration) {
						if received++; received == nPeers*nBlocks {
							close(done)
						}
					})
					cores[i].Start()
				}
			})
			for _, b := range harness.BuildChain(nBlocks, 4, 256, 3) {
				loop.Do(func() {
					if err := eps[nPeers].Send(0, &wire.DeliverBlock{Block: b}); err != nil {
						t.Error(err)
					}
				})
				time.Sleep(20 * time.Millisecond)
			}
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				loop.Do(func() { t.Errorf("only %d of %d block receptions", received, nPeers*nBlocks) })
			}

			loop.Do(func() {
				for i, c := range cores {
					c.Stop()
					if h := c.Height(); h != nBlocks {
						t.Errorf("peer %d committed height %d, want %d", i, h, nBlocks)
					}
					if p, ok := c.Proto().(*enhanced.Protocol); ok {
						if data, digest := p.PoolOutstanding(); data != 0 || digest != 0 {
							t.Errorf("peer %d: %d body and %d digest envelopes never released", i, data, digest)
						}
					}
				}
			})
		})
	}
}
