package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

const (
	// maxFrame bounds accepted frame sizes (a full block batch fits well
	// within it; anything larger is a protocol violation).
	maxFrame = 256 << 20
	// frameChunk is the most readFrame allocates ahead of bytes actually
	// received: a header's length claim alone never buys more.
	frameChunk = 64 << 10
	// sendQueueCap bounds each destination's queue of encoded frames. When
	// a slow or dead peer lets it fill, the oldest frame is dropped: gossip
	// tolerates loss, and a sender must never block on one peer.
	sendQueueCap = 128
	// dialTimeout and writeTimeout bound how long a writer goroutine waits
	// on one peer before giving up on the frame (and, for writes, the
	// connection).
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
	// maxDialBackoff caps the pause between failed dials to one peer.
	maxDialBackoff = 2 * time.Second
)

// AddressBook resolves node ids to dialable addresses.
type AddressBook interface {
	Resolve(id wire.NodeID) (string, bool)
}

// StaticAddressBook is a fixed id -> address map.
type StaticAddressBook map[wire.NodeID]string

// Resolve implements AddressBook.
func (b StaticAddressBook) Resolve(id wire.NodeID) (string, bool) {
	addr, ok := b[id]
	return addr, ok
}

// TCPEndpoint implements Endpoint over real TCP connections with
// length-prefixed frames. Frame layout:
//
//	[4-byte big-endian length][4-byte big-endian sender id][wire message]
//
// The endpoint belongs to one event loop (a sim.RealScheduler), which runs
// its node's protocol code: Send is called there, inbound frames are handed
// to the handler there, and the traffic accountant is only touched there.
// Send encodes on the caller — releasing a pooled envelope
// (wire.Releasable) as soon as its bytes exist — and queues the frame for
// the destination's writer goroutine, which dials and writes; it never
// blocks on the network. Per-connection reader goroutines decode frames
// and post them to the loop.
type TCPEndpoint struct {
	id      wire.NodeID
	book    AddressBook
	ln      net.Listener
	loop    *sim.RealScheduler
	traffic *netmodel.Traffic
	start   time.Time
	// wobs, when set, is loop-owned like the handler: it records on the
	// loop, and its registry is read there too.
	wobs *WireObs
	// handler is loop-owned.
	handler Handler

	// dropped counts frames that never made it onto a connection: queue
	// overflow, failed dials and failed writes.
	dropped atomic.Uint64

	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	queues map[wire.NodeID]*sendQueue
	// all tracks every live connection — dialed and accepted — so Close
	// can unblock their reader and writer goroutines.
	all map[net.Conn]struct{}
	wg  sync.WaitGroup
}

// sendQueue is one destination's bounded frame queue, drained by its own
// writer goroutine.
type sendQueue struct {
	addr   string
	wake   chan struct{} // capacity 1: "the queue may be non-empty"
	mu     sync.Mutex
	frames [][]byte
}

// ListenTCP starts an endpoint listening on addr (e.g. "127.0.0.1:0") whose
// protocol code runs on loop. traffic may be nil.
func ListenTCP(id wire.NodeID, addr string, book AddressBook, loop *sim.RealScheduler, traffic *netmodel.Traffic) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		id:      id,
		book:    book,
		ln:      ln,
		loop:    loop,
		traffic: traffic,
		start:   time.Now(),
		queues:  make(map[wire.NodeID]*sendQueue),
		all:     make(map[net.Conn]struct{}),
	}
	ep.ctx, ep.cancel = context.WithCancel(context.Background())
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// SetObs attaches a wire observer; call before any traffic flows. The
// observer records on the loop, so its registry belongs to the loop: read
// it there, as a metrics scrape does by taking its Snapshot inside Do.
func (ep *TCPEndpoint) SetObs(w *WireObs) { ep.wobs = w }

// Addr returns the listening address (useful with ":0").
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// ID implements Endpoint.
func (ep *TCPEndpoint) ID() wire.NodeID { return ep.id }

// SetHandler implements Endpoint. Call it on the loop, or before any
// traffic can arrive.
func (ep *TCPEndpoint) SetHandler(h Handler) { ep.handler = h }

// Dropped reports how many frames were discarded instead of written:
// dropped from a full send queue, or lost to a failed dial or write.
func (ep *TCPEndpoint) Dropped() uint64 { return ep.dropped.Load() }

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: endpoint closed")

// Send implements Endpoint. It runs on the loop and never blocks on the
// destination: the frame is queued for the destination's writer.
func (ep *TCPEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	defer releaseMsg(msg)
	q, err := ep.queueTo(to)
	if err != nil {
		return err
	}
	frame := make([]byte, 8, 8+msg.EncodedSize())
	frame = wire.AppendMarshal(frame, msg)
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-4))
	binary.BigEndian.PutUint32(frame[4:8], uint32(ep.id))
	if q.push(frame) {
		ep.dropped.Add(1)
	}
	if ep.traffic != nil {
		ep.traffic.Record(ep.id, to, msg.Type(), len(frame), time.Since(ep.start))
	}
	if ep.wobs != nil {
		ep.wobs.Sent(time.Since(ep.start), ep.id, to, msg.Type(), len(frame))
	}
	return nil
}

// queueTo returns the destination's send queue, creating it and starting
// its writer on first use.
func (ep *TCPEndpoint) queueTo(to wire.NodeID) (*sendQueue, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil, ErrClosed
	}
	if q, ok := ep.queues[to]; ok {
		return q, nil
	}
	addr, ok := ep.book.Resolve(to)
	if !ok {
		return nil, fmt.Errorf("transport: no address for %v", to)
	}
	q := &sendQueue{addr: addr, wake: make(chan struct{}, 1)}
	ep.queues[to] = q
	ep.wg.Add(1)
	go ep.writeLoop(q)
	return q, nil
}

// push appends a frame, dropping the oldest one if the queue is full, and
// reports whether it dropped.
func (q *sendQueue) push(frame []byte) (dropped bool) {
	q.mu.Lock()
	if len(q.frames) >= sendQueueCap {
		q.frames[0] = nil
		q.frames = q.frames[1:]
		dropped = true
	}
	q.frames = append(q.frames, frame)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return dropped
}

func (q *sendQueue) pop() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.frames) == 0 {
		return nil
	}
	f := q.frames[0]
	q.frames[0] = nil
	q.frames = q.frames[1:]
	return f
}

// writeLoop is one destination's writer: the connection's only writer, so
// frames need no send lock. It dials lazily, backs off after failed dials,
// and bounds every write with a deadline so a peer that stops reading
// costs its own queue, never the sender.
func (ep *TCPEndpoint) writeLoop(q *sendQueue) {
	defer ep.wg.Done()
	var conn net.Conn
	var backoff time.Duration
	for {
		frame := q.pop()
		if frame == nil {
			select {
			case <-ep.ctx.Done():
				return
			case <-q.wake:
				continue
			}
		}
		if conn == nil {
			c, err := ep.dial(q.addr)
			if err != nil {
				ep.dropped.Add(1)
				if ep.ctx.Err() != nil {
					return
				}
				backoff = min(max(2*backoff, 50*time.Millisecond), maxDialBackoff)
				select {
				case <-ep.ctx.Done():
					return
				case <-time.After(backoff):
				}
				continue
			}
			conn, backoff = c, 0
		}
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout)) // a failure here fails the Write too
		if _, err := conn.Write(frame); err != nil {
			ep.dropped.Add(1)
			_ = conn.Close() // its reader unregisters it
			conn = nil
		}
	}
}

// dial connects to addr and registers the connection; outbound connections
// also carry inbound frames (full duplex), so it gets a reader too.
func (ep *TCPEndpoint) dial(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ep.ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if !ep.track(conn) {
		return nil, ErrClosed
	}
	return conn, nil
}

// track registers a live connection and starts its reader, or closes it if
// the endpoint already shut down.
func (ep *TCPEndpoint) track(conn net.Conn) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		_ = conn.Close()
		return false
	}
	ep.all[conn] = struct{}{}
	ep.wg.Add(1)
	go ep.readLoop(conn)
	return true
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !ep.track(conn) {
			return
		}
	}
}

var errBadFrame = errors.New("transport: frame length out of range")

// readFrame reads one length-prefixed frame and returns its body (sender id
// and wire message). The buffer grows only as bytes actually arrive, so a
// header claiming a huge frame costs at most frameChunk plus what the peer
// really sends.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n < 4 || n > maxFrame {
		return nil, errBadFrame
	}
	var buf bytes.Buffer
	buf.Grow(int(min(n, frameChunk)))
	if _, err := buf.ReadFrom(io.LimitReader(r, n)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() {
		_ = conn.Close()
		ep.mu.Lock()
		delete(ep.all, conn)
		ep.mu.Unlock()
	}()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return // closed, truncated or oversized: drop the connection
		}
		from := wire.NodeID(binary.BigEndian.Uint32(payload[:4]))
		msg, err := wire.Unmarshal(payload[4:])
		if err != nil {
			return // corrupt frame; drop the connection
		}
		size := 4 + len(payload)
		ep.loop.Post(func() { ep.deliver(from, msg, size) })
	}
}

// deliver hands one decoded frame to the handler, on the loop.
func (ep *TCPEndpoint) deliver(from wire.NodeID, msg wire.Message, size int) {
	if ep.handler == nil || ep.ctx.Err() != nil {
		return
	}
	if ep.wobs != nil {
		ep.wobs.Received(time.Since(ep.start), from, ep.id, msg.Type(), size)
	}
	ep.handler(from, msg)
}

// Close shuts the endpoint down and waits for its goroutines to exit.
// Queued frames are discarded.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.cancel()
	all := make([]net.Conn, 0, len(ep.all))
	for c := range ep.all {
		all = append(all, c)
	}
	ep.mu.Unlock()

	err := ep.ln.Close()
	for _, c := range all {
		_ = c.Close() // unblocks readers and writers
	}
	ep.wg.Wait()
	return err
}
