// Command gossipnet demonstrates the live (non-simulated) runtime: it
// starts an organization of gossip peers over real localhost TCP
// connections, disseminates blocks with the enhanced protocol, and reports
// per-block dissemination latency. The identical protocol code runs under
// the discrete-event engine in the experiments.
//
// Usage:
//
//	gossipnet -peers 20 -blocks 10 -fout 4
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

func main() {
	nPeers := flag.Int("peers", 20, "number of peers")
	nBlocks := flag.Int("blocks", 10, "number of blocks to disseminate")
	fout := flag.Int("fout", 4, "enhanced push fan-out")
	interval := flag.Duration("interval", 300*time.Millisecond, "block injection interval")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text exposition on this address at /metrics (e.g. 127.0.0.1:9464)")
	flag.Parse()
	if err := run(*nPeers, *nBlocks, *fout, *interval, *metricsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "gossipnet: %v\n", err)
		os.Exit(1)
	}
}

// serveMetrics exposes reg in Prometheus text format at /metrics.
func serveMetrics(addr string, loop *sim.RealScheduler, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metricsHandler(loop, reg))
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("serving /metrics on http://%s/metrics\n", ln.Addr())
	return ln, nil
}

// metricsHandler serves reg, which belongs to loop like the rest of the
// peers' state: each scrape takes its snapshot on the loop and formats it on
// the request's own goroutine.
func metricsHandler(loop *sim.RealScheduler, reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var snap *obs.Snapshot
		loop.Do(func() { snap = reg.Snapshot() })
		if snap == nil { // the loop has closed
			http.Error(w, "runtime stopped", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = snap.WritePrometheus(w)
	})
}

func run(nPeers, nBlocks, fout int, interval time.Duration, metricsAddr string) error {
	cfg, err := enhanced.ConfigFor(nPeers, fout, 1e-6, 2)
	if err != nil {
		return err
	}
	fmt.Printf("starting %d TCP peers: fout=%d TTL=%d TTLdirect=%d\n",
		nPeers, cfg.Fout, cfg.TTL, cfg.TTLDirect)

	// One event loop runs every peer's protocol code, exactly as the
	// engine does in the simulator: timers, inbound frames and the
	// orderer's injections below all execute on it, one at a time. Only
	// the endpoints' reader and writer goroutines live outside it.
	loop := sim.NewRealScheduler()
	defer loop.Close()
	book := transport.StaticAddressBook{}
	traffic := netmodel.NewSimTraffic(time.Second)

	// The metrics registry is loop-owned, like a simulation shard's: the
	// endpoints record into it on the loop and the scrape snapshots it there.
	var wobs *transport.WireObs
	if metricsAddr != "" {
		var reg *obs.Registry
		loop.Do(func() {
			reg = obs.NewRegistry()
			wobs = transport.NewWireObs(reg, nil)
		})
		ln, err := serveMetrics(metricsAddr, loop, reg)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	// Bring up endpoints first so the address book is complete before any
	// gossip starts. An extra endpoint plays the ordering service.
	endpoints := make([]*transport.TCPEndpoint, nPeers+1)
	for i := range endpoints {
		ep, err := transport.ListenTCP(wire.NodeID(i), "127.0.0.1:0", book, loop, traffic)
		if err != nil {
			return err
		}
		defer ep.Close()
		endpoints[i] = ep
		if wobs != nil {
			ep.SetObs(wobs)
		}
		book[wire.NodeID(i)] = ep.Addr()
	}
	orderer := endpoints[nPeers]

	peerIDs := make([]wire.NodeID, nPeers)
	for i := range peerIDs {
		peerIDs[i] = wire.NodeID(i)
	}

	// firstSeen and received are loop-owned; done closes on the loop once
	// every peer holds every block.
	firstSeen := make([]map[uint64]time.Duration, nPeers)
	received := 0
	done := make(chan struct{})
	cores := make([]*gossip.Core, nPeers)
	loop.Do(func() {
		for i := range cores {
			gcfg := gossip.DefaultConfig(peerIDs[i], peerIDs)
			core := gossip.New(gcfg, endpoints[i], loop, sim.NewRand(int64(i)+1), enhanced.New(cfg))
			seen := make(map[uint64]time.Duration)
			firstSeen[i] = seen
			core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
				seen[b.Num] = at
				if received++; received == nPeers*nBlocks {
					close(done)
				}
			})
			cores[i] = core
			core.Start()
		}
	})
	defer loop.Do(func() {
		for _, c := range cores {
			c.Stop()
		}
	})

	blocks := harness.BuildChain(nBlocks, 10, 1024, 7)
	for _, b := range blocks {
		loop.Do(func() { err = orderer.Send(0, &wire.DeliverBlock{Block: b}) })
		if err != nil {
			return err
		}
		time.Sleep(interval)
	}

	// Wait until every peer holds every block (push phase is sub-second;
	// this is just a safety deadline).
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("dissemination incomplete after deadline")
	}

	rec := metrics.NewLatencyRecorder()
	var dataSends uint64
	var dropped uint64
	loop.Do(func() {
		for _, b := range blocks {
			start := firstSeen[0][b.Num]
			for i := 1; i < nPeers; i++ {
				rec.Record(b.Num, wire.NodeID(i), firstSeen[i][b.Num]-start)
			}
		}
		dataSends = traffic.CountOf(wire.TypeData)
		for _, ep := range endpoints {
			dropped += ep.Dropped()
		}
	})
	fmt.Printf("disseminated %d blocks to %d peers over TCP\n", nBlocks, nPeers)
	fmt.Printf("latency: %v\n", metrics.Summarize(rec.All()))
	fmt.Printf("full-block transmissions: %d (n-1 per block would be %d)\n",
		dataSends, (nPeers-1)*nBlocks)
	fmt.Printf("frames dropped by send queues: %d\n", dropped)
	return nil
}
