// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of events.
// Events scheduled for the same instant fire in scheduling order, which —
// together with seeded random streams (see Rand) — makes every run exactly
// reproducible from its seed.
//
// Protocol code is written against the Scheduler interface so that the same
// logic runs unchanged under virtual time (Engine) and real time
// (RealScheduler).
package sim

import (
	"fmt"
	"time"
)

// Scheduler abstracts time for protocol code: the discrete-event Engine and
// the wall-clock RealScheduler both implement it.
//
// Ownership contract: a node's protocol code runs only on its scheduler's
// goroutine. Every timer callback, every message handler its transport
// invokes, and every call into the node from outside (Start, Stop, block
// injection, hooks) runs there, one at a time. An Engine runs everything on
// the goroutine that calls Run/RunUntil (a ShardedEngine gives each shard's
// nodes their shard engine); a RealScheduler runs everything on its event
// loop, and other goroutines hand work in with RealScheduler.Post. Protocol
// types therefore hold no locks, and random draws and sends happen in
// program order on both runtimes.
type Scheduler interface {
	// Now returns the elapsed time since the start of the run.
	Now() time.Duration
	// After schedules fn to run once, d from now. A non-positive d means
	// "as soon as possible" (still asynchronously, never inline).
	After(d time.Duration, fn func()) Timer
	// Every runs fn every interval at a fixed rate until the returned
	// timer is stopped; the first firing is one interval from now.
	Every(interval time.Duration, fn func()) Timer
}

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Stop cancels the callback if it has not fired yet and reports
	// whether it was cancelled before firing.
	Stop() bool
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all events run sequentially on the goroutine that calls
// Run, RunFor or RunUntil, which is what gives simulated protocols their
// determinism.
//
// Cancellation is active: Stop removes the event from the queue immediately
// (O(log n)), so long runs with heavy timer churn — thousand-peer fault
// scenarios cancel and re-arm millions of timers — never accumulate dead
// entries in the heap.
type Engine struct {
	now      time.Duration
	seq      uint64
	queue    eventQueue
	streams  map[string]*Rand
	seed     int64
	stopped  bool
	executed uint64
	// free recycles fired delivery events (AfterMsg) so the steady-state
	// per-message path never allocates: a simulation delivering millions of
	// messages reuses a working set of event structs the size of its peak
	// in-flight count.
	free []*event
	// peakPending is the high-water mark of the event queue, a capacity
	// diagnostic for drain spikes (scenario reports surface it outside the
	// fingerprint).
	peakPending int
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		streams: make(map[string]*Rand),
		seed:    seed,
	}
}

// Seed returns the root seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return len(e.queue) }

// Executed returns the total number of events run since creation.
func (e *Engine) Executed() uint64 { return e.executed }

// PeakPending returns the queue's high-water mark: the largest number of
// events that were ever simultaneously pending.
func (e *Engine) PeakPending() int { return e.peakPending }

// notePeak updates the queue high-water mark after a push.
func (e *Engine) notePeak() {
	if n := len(e.queue); n > e.peakPending {
		e.peakPending = n
	}
}

// NextEventAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. The sharded coordinator uses it to clip windows
// to the next barrier-hosted event and to skip empty windows entirely.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// advanceTo moves the clock forward to t without executing anything (the
// sharded coordinator's idle hop). Events already queued at or before t are
// untouched and fire — at their recorded timestamps — in the next window.
func (e *Engine) advanceTo(t time.Duration) {
	if e.now < t {
		e.now = t
	}
}

// After schedules fn to run at Now()+d. Negative delays are clamped to zero,
// so the event fires after all events already scheduled for the current
// instant.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: After called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	ev := &event{e: e, at: e.now + d, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	e.notePeak()
	return ev
}

// At schedules fn at an absolute virtual time. Times in the past are clamped
// to the current instant.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	return e.After(t-e.now, fn)
}

// DeliveryHandler consumes a pooled delivery event: the payload a transport
// stored with AfterMsg comes back as typed arguments instead of a captured
// closure environment.
type DeliveryHandler func(from, to uint64, msg any)

// AfterMsg schedules h(from, to, msg) at Now()+d on the pooled delivery
// path. It is the allocation-free counterpart of After for the dominant
// event class of a network simulation — message deliveries — which are
// fire-and-forget: no Timer is returned because deliveries are never
// cancelled (faults are checked at fire time by the handler). The (time,
// insertion sequence) ordering contract is exactly After's: an AfterMsg and
// an After scheduled for the same instant fire in scheduling order.
//
// The event struct comes from a free list and returns to it after firing,
// and the arguments live in typed fields, so steady-state delivery performs
// zero heap allocations. Storing msg in the any field is allocation-free
// when msg is already an interface or pointer (interface-to-interface
// conversion copies the two words); callers should not pass bare scalars.
func (e *Engine) AfterMsg(d time.Duration, h DeliveryHandler, from, to uint64, msg any) {
	if h == nil {
		panic("sim: AfterMsg called with nil handler")
	}
	if d < 0 {
		d = 0
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{e: e}
	}
	ev.at = e.now + d
	ev.seq = e.seq
	e.seq++
	ev.deliver = h
	ev.from = from
	ev.to = to
	ev.msg = msg
	e.queue.push(ev)
	e.notePeak()
}

// AtMsg schedules a pooled delivery at an absolute virtual time, clamping
// past times to the current instant. It is At's counterpart on the AfterMsg
// path; the sharded coordinator uses it to requeue cross-shard deliveries at
// their original timestamps.
func (e *Engine) AtMsg(t time.Duration, h DeliveryHandler, from, to uint64, msg any) {
	e.AfterMsg(t-e.now, h, from, to, msg)
}

// Every schedules fn at now+interval, now+2*interval, ... until the returned
// timer is stopped. The first firing is one full interval from now.
//
// The periodic timer owns a single event struct and re-queues it after each
// firing, so steady-state ticking allocates nothing — the dominant event
// source of a large simulation (per-peer heartbeat/state-info/recovery
// timers) stays off the garbage collector entirely.
func (e *Engine) Every(interval time.Duration, fn func()) Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	p := &periodic{e: e, interval: interval, fn: fn}
	p.tickFn = p.tick // bound once: rebinding per tick would allocate
	p.ev = &event{e: e, fn: p.tickFn}
	p.rearm()
	return p
}

// Step executes the single next event and reports whether one was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.popMin()
	if ev.at > e.now {
		e.now = ev.at
	}
	e.executed++
	if h := ev.deliver; h != nil {
		// Pooled delivery event: copy the payload out, recycle the struct
		// before invoking the handler (so the handler's own sends can reuse
		// it), then dispatch.
		from, to, msg := ev.from, ev.to, ev.msg
		ev.deliver = nil
		ev.msg = nil
		e.free = append(e.free, ev)
		h(from, to, msg)
		return true
	}
	fn := ev.fn
	ev.fn = nil // release the closure; also marks the event as fired
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the number of events executed.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (even if the queue drained earlier). It returns the number of events
// executed.
func (e *Engine) RunUntil(t time.Duration) int {
	e.stopped = false
	n := 0
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
		n++
	}
	if e.now < t {
		e.now = t
	}
	return n
}

// RunFor is shorthand for RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) int { return e.RunUntil(e.now + d) }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Scheduled events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// event implements Timer. index is the event's position in the owning
// engine's heap, or -1 once it has fired or been cancelled.
//
// An event is either a closure event (fn set, scheduled by After/Every) or
// a pooled delivery event (deliver set, scheduled by AfterMsg, recycled via
// the engine's free list after firing). Delivery events never escape as
// Timers, so Stop cannot observe one.
type event struct {
	e     *Engine
	at    time.Duration
	seq   uint64
	fn    func()
	index int

	// Typed payload of the pooled delivery path.
	deliver  DeliveryHandler
	from, to uint64
	msg      any
}

func (ev *event) Stop() bool {
	if ev.index < 0 || ev.fn == nil {
		return false // already fired or cancelled
	}
	ev.e.queue.remove(ev.index)
	ev.fn = nil
	return true
}

// periodic implements Timer for Every, reusing one event across firings.
type periodic struct {
	e        *Engine
	interval time.Duration
	fn       func()
	tickFn   func()
	ev       *event
	stopped  bool
}

func (p *periodic) rearm() {
	ev := p.ev
	ev.at = p.e.now + p.interval
	ev.seq = p.e.seq
	p.e.seq++
	ev.fn = p.tickFn
	p.e.queue.push(ev)
	p.e.notePeak()
}

func (p *periodic) tick() {
	if p.stopped {
		return
	}
	p.fn()
	if !p.stopped {
		p.rearm()
	}
}

func (p *periodic) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	if p.ev.index >= 0 {
		p.e.queue.remove(p.ev.index)
		p.ev.fn = nil
	}
	return true
}

// eventQueue is a hand-rolled min-heap ordered by (time, insertion
// sequence). It avoids container/heap's interface dispatch on the hottest
// loop of every simulation and maintains each event's index so cancellation
// can remove in place.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) push(ev *event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.siftUp(ev.index)
}

func (q *eventQueue) popMin() *event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h.swap(0, n)
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	ev.index = -1
	q.maybeShrink()
	return ev
}

// remove deletes the event at heap position i.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h.swap(i, n)
	}
	h[n] = nil
	*q = h[:n]
	if i != n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	ev.index = -1
	q.maybeShrink()
}

// shrinkMinCap is the smallest backing-array capacity maybeShrink bothers
// reclaiming. Below it the queue costs nothing worth a copy.
const shrinkMinCap = 1024

// maybeShrink reallocates the backing array when occupancy falls to a
// quarter of capacity or less, returning the memory of drain spikes: a fault
// scenario can balloon the queue into the millions of pending deliveries and
// then idle at a few thousand timers for the rest of the run. The copy
// preserves slot order, so event indices stay valid, and the new capacity
// (2x the live count) keeps the shrink amortized — it cannot re-trigger
// until the queue halves again.
func (q *eventQueue) maybeShrink() {
	h := *q
	if cap(h) < shrinkMinCap || len(h) > cap(h)/4 {
		return
	}
	ns := make(eventQueue, len(h), 2*len(h))
	copy(ns, h)
	*q = ns
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element moved.
func (q eventQueue) siftDown(i int) bool {
	n := len(q)
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
	return i > start
}
