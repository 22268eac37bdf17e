package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// startPair brings up two TCP endpoints that know each other's addresses,
// sharing one event loop.
func startPair(t *testing.T, traffic *netmodel.Traffic) (*TCPEndpoint, *TCPEndpoint, *sim.RealScheduler) {
	t.Helper()
	loop := sim.NewRealScheduler()
	book := StaticAddressBook{}
	a, err := ListenTCP(0, "127.0.0.1:0", book, loop, traffic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(1, "127.0.0.1:0", book, loop, traffic)
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	book[0] = a.Addr()
	book[1] = b.Addr()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
		loop.Close()
	})
	return a, b, loop
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitOnLoop is waitFor with cond evaluated on the loop, so it may read
// loop-owned state without locks.
func waitOnLoop(t *testing.T, loop *sim.RealScheduler, cond func() bool, what string) {
	t.Helper()
	waitFor(t, func() bool {
		var ok bool
		loop.Do(func() { ok = cond() })
		return ok
	}, what)
}

func TestTCPRoundTrip(t *testing.T) {
	a, b, loop := startPair(t, nil)

	var got []wire.Message
	var from []wire.NodeID
	b.SetHandler(func(f wire.NodeID, m wire.Message) {
		got = append(got, m)
		from = append(from, f)
	})

	loop.Do(func() {
		for i := 0; i < 10; i++ {
			if err := a.Send(b.ID(), &wire.StateInfo{Height: uint64(i)}); err != nil {
				t.Error(err)
			}
		}
	})
	waitOnLoop(t, loop, func() bool { return len(got) == 10 }, "10 messages")

	loop.Do(func() {
		for i, m := range got {
			si, ok := m.(*wire.StateInfo)
			if !ok || si.Height != uint64(i) {
				t.Errorf("message %d = %#v", i, m)
			}
			if from[i] != a.ID() {
				t.Errorf("from = %v, want %v", from[i], a.ID())
			}
		}
	})
}

func TestTCPBidirectional(t *testing.T) {
	a, b, loop := startPair(t, nil)
	gotA, gotB := 0, 0
	a.SetHandler(func(wire.NodeID, wire.Message) { gotA++ })
	b.SetHandler(func(wire.NodeID, wire.Message) { gotB++ })
	loop.Do(func() {
		if err := a.Send(1, &wire.PullHello{Nonce: 1}); err != nil {
			t.Error(err)
		}
		if err := b.Send(0, &wire.PullHello{Nonce: 2}); err != nil {
			t.Error(err)
		}
	})
	waitOnLoop(t, loop, func() bool { return gotA == 1 && gotB == 1 }, "both directions")
}

func TestTCPCarriesBlocks(t *testing.T) {
	a, b, loop := startPair(t, nil)
	var blk *wire.Data
	b.SetHandler(func(_ wire.NodeID, m wire.Message) {
		if d, ok := m.(*wire.Data); ok {
			blk = d
		}
	})
	sent := &wire.Data{Block: testBlockTCP(3), Counter: 4}
	loop.Do(func() {
		if err := a.Send(1, sent); err != nil {
			t.Error(err)
		}
	})
	waitOnLoop(t, loop, func() bool { return blk != nil }, "block")
	loop.Do(func() {
		if blk.Counter != 4 || blk.Block.Num != 3 || blk.Block.Hash() != sent.Block.Hash() {
			t.Errorf("got %+v", blk)
		}
	})
}

func TestTCPSendUnknownDestination(t *testing.T) {
	a, _, _ := startPair(t, nil)
	if err := a.Send(42, &wire.PullHello{}); err == nil {
		t.Fatal("send to unknown id succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, b, _ := startPair(t, nil)
	_ = a.Close()
	if err := a.Send(b.ID(), &wire.PullHello{}); err == nil {
		t.Fatal("send after close succeeded")
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPTrafficAccounting(t *testing.T) {
	tr := netmodel.NewSimTraffic(time.Second)
	a, b, loop := startPair(t, tr)
	got := 0
	b.SetHandler(func(wire.NodeID, wire.Message) { got++ })
	loop.Do(func() {
		if err := a.Send(1, &wire.StateInfo{Height: 5}); err != nil {
			t.Error(err)
		}
	})
	waitOnLoop(t, loop, func() bool { return got == 1 }, "delivery")
	loop.Do(func() {
		if tr.CountOf(wire.TypeStateInfo) != 1 {
			t.Error("traffic not recorded")
		}
	})
}

// Send encodes on the caller, so a pooled envelope returns to its pool as
// soon as every send has been issued — including a send that fails.
func TestTCPSendReleasesPooledEnvelope(t *testing.T) {
	a, b, loop := startPair(t, nil)
	got := 0
	b.SetHandler(func(wire.NodeID, wire.Message) { got++ })
	var pool wire.DataPool
	loop.Do(func() {
		msg := pool.Get(testBlockTCP(1), 2, 2)
		_ = a.Send(b.ID(), msg)
		_ = a.Send(42, msg) // unknown destination: still a terminal point
		if pool.Outstanding() != 0 || pool.FreeLen() != 1 {
			t.Errorf("outstanding %d, free %d after both sends; want 0, 1", pool.Outstanding(), pool.FreeLen())
		}
	})
	waitOnLoop(t, loop, func() bool { return got == 1 }, "pooled delivery")
}

// A header claiming a huge frame must not buy a huge buffer: a peer that
// sends one and then closes costs the receiver less than 1 MB.
func TestTCPHugeFrameHeaderBoundedAlloc(t *testing.T) {
	_, b, _ := startPair(t, nil)
	liveConns := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.all)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	if _, err := conn.Write(append(hdr[:], 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return liveConns() == 1 }, "accepted connection")
	_ = conn.Close()
	waitFor(t, func() bool { return liveConns() == 0 }, "receiver to drop the connection")
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a %d-byte frame claim cost %d bytes of allocation, want < 1 MB", maxFrame, d)
	}
}

func TestReadFrame(t *testing.T) {
	frame := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	body := []byte{0, 0, 0, 7, 9, 9}
	got, err := readFrame(bytes.NewReader(frame(6, body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readFrame = %v, %v; want %v", got, err, body)
	}
	if _, err := readFrame(bytes.NewReader(frame(6, body[:5]))); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	for _, n := range []uint32{0, 3, maxFrame + 1} {
		if _, err := readFrame(bytes.NewReader(frame(n, body))); err != errBadFrame {
			t.Fatalf("length %d: err = %v, want %v", n, err, errBadFrame)
		}
	}
}

// A destination that accepts but never reads must not stall its sender:
// Send keeps returning at once, the sender's periodic ticks stay on
// schedule, and the bounded queue sheds (and counts) the oldest frames.
func TestTCPStalledReaderDoesNotBlockSender(t *testing.T) {
	loop := sim.NewRealScheduler()
	defer loop.Close()
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var held []net.Conn // accepted and never read
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := stalled.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	defer func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			_ = c.Close()
		}
	}()
	book := StaticAddressBook{1: stalled.Addr().String()}
	a, err := ListenTCP(0, "127.0.0.1:0", book, loop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const interval = 5 * time.Millisecond
	big := &wire.Data{Block: &ledger.Block{Num: 1, Txs: []*ledger.Transaction{{Payload: make([]byte, 64<<10)}}}}
	var ticks []time.Duration
	var slowestSend time.Duration
	var tm sim.Timer
	loop.Do(func() {
		tm = loop.Every(interval, func() {
			ticks = append(ticks, loop.Now())
			for i := 0; i < 16; i++ {
				start := time.Now()
				if err := a.Send(1, big); err != nil {
					t.Error(err)
				}
				slowestSend = max(slowestSend, time.Since(start))
			}
		})
	})
	waitFor(t, func() bool { return a.Dropped() > 0 }, "queue overflow drops")
	var n int
	var worstGap time.Duration
	loop.Do(func() {
		tm.Stop()
		n = len(ticks)
		for i := 1; i < len(ticks); i++ {
			worstGap = max(worstGap, ticks[i]-ticks[i-1])
		}
	})
	if n < 2 {
		t.Fatalf("only %d ticks fired", n)
	}
	// Generous bounds (race detector, shared hosts): a blocked sender would
	// stall for the whole write timeout.
	if slowestSend > 100*time.Millisecond {
		t.Errorf("slowest Send took %v; Send must not block on a stalled peer", slowestSend)
	}
	if worstGap > writeTimeout/2 {
		t.Errorf("worst gap between %v ticks was %v", interval, worstGap)
	}
}

func testBlockTCP(num uint64) *ledger.Block {
	rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{1}}}}
	tx := &ledger.Transaction{
		ID:        ledger.ProposalDigest("c", "cc", rw, nil),
		Client:    "c",
		Chaincode: "cc",
		RWSet:     rw,
		Payload:   make([]byte, 128),
	}
	return &ledger.Block{Num: num, Txs: []*ledger.Transaction{tx}, DataHash: ledger.ComputeDataHash([]*ledger.Transaction{tx})}
}
