package sim

import (
	"fmt"
	"sync"
	"time"
)

// RealScheduler implements Scheduler on the wall clock as an event loop:
// timer firings and work handed in with Post run one at a time, in arrival
// order, on the scheduler's own goroutine. Protocol code driven by it is
// therefore single-threaded exactly as under the Engine (see the ownership
// contract on Scheduler).
//
// Now, Post, Do and Close may be called from any goroutine. After, Every and
// Timer.Stop belong on the loop; Stop called there is exact — a stopped
// timer never fires, even if its deadline already passed.
type RealScheduler struct {
	start time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	// timers holds every armed timer so Close can cancel them.
	timers map[*realTimer]struct{}
	done   chan struct{}
}

// NewRealScheduler returns a scheduler whose Now() is measured from the
// moment of this call, with its event loop running.
func NewRealScheduler() *RealScheduler {
	s := &RealScheduler{
		start:  time.Now(),
		timers: make(map[*realTimer]struct{}),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// Now returns the elapsed wall time since the scheduler was created.
func (s *RealScheduler) Now() time.Duration { return time.Since(s.start) }

// Post queues fn to run on the loop after everything posted before it.
// After Close it is a no-op.
func (s *RealScheduler) Post(fn func()) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, fn)
	}
	s.mu.Unlock()
	s.cond.Signal()
}

// Do runs fn on the loop and waits for it to return. It must not be called
// from the loop itself. After Close, fn is dropped and Do returns at once.
func (s *RealScheduler) Do(fn func()) {
	ran := make(chan struct{})
	s.Post(func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
	case <-s.done:
	}
}

func (s *RealScheduler) loop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		fn := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.mu.Unlock()
		fn()
	}
}

// After schedules fn on the loop once d has elapsed. After Close, it
// returns an inert timer without scheduling anything.
func (s *RealScheduler) After(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: After called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	rt := &realTimer{s: s, fn: fn}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		rt.done = true
		return rt
	}
	s.timers[rt] = struct{}{}
	rt.t = time.AfterFunc(d, func() { s.Post(rt.fire) })
	return rt
}

// Every runs fn on the loop every interval until the timer is stopped, at a
// fixed rate like Engine.Every: each deadline is one interval after the
// previous one, not after the callback returned, so the callback's own run
// time never accumulates as drift. The first firing is one full interval
// from now.
func (s *RealScheduler) Every(interval time.Duration, fn func()) Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	p := &realPeriodic{s: s, interval: interval, fn: fn, deadline: s.Now()}
	p.arm()
	return p
}

// Close stops the loop and cancels all outstanding timers; work still
// queued is dropped and later After calls return inert timers. It waits
// for the callback in progress to return, so it must not be called from
// the loop itself. After Close returns, the caller may read state the loop
// owned.
func (s *RealScheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.queue = nil
	for rt := range s.timers {
		rt.t.Stop()
	}
	s.timers = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	<-s.done
}

// realTimer is one After callback. done is owned by the loop: it is set by
// the firing or by Stop, whichever runs first there.
type realTimer struct {
	s    *RealScheduler
	t    *time.Timer
	fn   func()
	done bool
}

func (rt *realTimer) fire() {
	if rt.done {
		return
	}
	rt.release()
	rt.fn()
}

func (rt *realTimer) Stop() bool {
	if rt.done {
		return false
	}
	rt.release()
	rt.t.Stop()
	return true
}

func (rt *realTimer) release() {
	rt.done = true
	rt.s.mu.Lock()
	delete(rt.s.timers, rt)
	rt.s.mu.Unlock()
}

// realPeriodic implements Timer for RealScheduler.Every by re-arming a
// one-shot timer after each tick.
type realPeriodic struct {
	s        *RealScheduler
	interval time.Duration
	fn       func()
	deadline time.Duration
	cur      Timer
	stopped  bool
}

func (p *realPeriodic) arm() { p.cur = p.s.After(p.next(p.s.Now()), p.tick) }

// next advances the deadline by one interval and returns the delay from now
// until it. A callback that overran part of the interval yields a shortened
// delay, keeping ticks on the original grid. But if the schedule fell more
// than one whole interval behind (process stall, suspend), it snaps to now
// instead of firing a catch-up burst of every missed tick.
func (p *realPeriodic) next(now time.Duration) time.Duration {
	p.deadline += p.interval
	if p.deadline+p.interval < now {
		p.deadline = now
	}
	return p.deadline - now
}

func (p *realPeriodic) tick() {
	p.fn()
	if !p.stopped {
		p.arm()
	}
}

func (p *realPeriodic) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	p.cur.Stop()
	return true
}
