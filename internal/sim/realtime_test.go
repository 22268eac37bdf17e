package sim

import (
	"sync"
	"testing"
	"time"
)

func TestRealSchedulerFiresCallback(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	done := make(chan struct{})
	s.Post(func() { s.After(time.Millisecond, func() { close(done) }) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("callback did not fire")
	}
	if s.Now() <= 0 {
		t.Fatal("Now() should be positive after elapsed time")
	}
}

// Stop on the loop is exact even when the deadline has already passed and
// the firing is queued behind the running callback.
func TestRealSchedulerStopPreventsFiring(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	fired := false
	s.Do(func() {
		tm := s.After(time.Millisecond, func() { fired = true })
		time.Sleep(20 * time.Millisecond) // the deadline passes while we hold the loop
		if !tm.Stop() {
			t.Error("Stop should report true before firing")
		}
		if tm.Stop() {
			t.Error("second Stop should report false")
		}
	})
	time.Sleep(20 * time.Millisecond)
	s.Do(func() {
		if fired {
			t.Error("stopped timer fired")
		}
	})
}

func TestRealSchedulerCloseCancelsAll(t *testing.T) {
	s := NewRealScheduler()
	var mu sync.Mutex
	count := 0
	s.Do(func() {
		for i := 0; i < 5; i++ {
			s.After(50*time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}
	})
	s.Close()
	s.Close() // idempotent
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("%d callbacks fired after Close, want 0", count)
	}
	// After Close, new timers are inert and posted work is dropped.
	tm := s.After(time.Millisecond, func() { count++ })
	if tm.Stop() {
		t.Fatal("inert timer Stop should report false")
	}
	s.Post(func() { count++ })
	time.Sleep(20 * time.Millisecond)
	if count != 0 {
		t.Fatal("work ran after Close")
	}
}

// Posted work runs on the loop one item at a time, in posting order.
func TestRealSchedulerPostRunsFIFO(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	const n = 1000
	var got []int // loop-owned: no lock needed
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		s.Post(func() {
			got = append(got, i)
			wg.Done()
		})
	}
	wg.Wait()
	s.Do(func() {
		for i, v := range got {
			if v != i {
				t.Errorf("position %d ran item %d", i, v)
				return
			}
		}
	})
}

// A periodic timer re-arms relative to the previous deadline, like
// Engine.Every: a callback that takes 30ms must shorten the next delay by
// 30ms instead of pushing every subsequent tick later.
func TestRealSchedulerEveryDoesNotAccumulateCallbackDrift(t *testing.T) {
	const interval = time.Second
	p := &realPeriodic{interval: interval}
	if d := p.next(0); d != interval {
		t.Fatalf("first arm delay %v, want %v", d, interval)
	}
	// Tick 1 fires at its deadline; the callback consumes 30ms.
	if d, want := p.next(interval+30*time.Millisecond), interval-30*time.Millisecond; d != want {
		t.Fatalf("re-arm delay %v, want %v (compensating 30ms of callback time)", d, want)
	}
	// Tick 2 fires slightly late on top of callback time: still anchored
	// to the 3*interval grid point.
	if d, want := p.next(2*interval+35*time.Millisecond), interval-35*time.Millisecond; d != want {
		t.Fatalf("re-arm delay %v, want %v (grid-anchored)", d, want)
	}
}

// A schedule that fell multiple intervals behind (process stall, suspend)
// must snap to the present and fire one catch-up tick, not a burst of
// every missed one.
func TestRealSchedulerEverySnapsAfterLongStall(t *testing.T) {
	const interval = time.Second
	p := &realPeriodic{interval: interval}
	p.next(0)
	// The process resumes 10 intervals late.
	if d := p.next(10 * interval); d != 0 {
		t.Fatalf("post-stall re-arm delay %v, want 0 (snap to now)", d)
	}
	// The catch-up tick runs on time; cadence is back to one interval
	// with no further backlog.
	if d := p.next(10 * interval); d != interval {
		t.Fatalf("delay after snap %v, want %v", d, interval)
	}
}

// Every on the live loop: ticks keep coming until Stop, and Stop on the
// loop is exact.
func TestRealSchedulerEveryTicksUntilStop(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	ticks := 0
	enough := make(chan struct{})
	var tm Timer
	s.Do(func() {
		tm = s.Every(2*time.Millisecond, func() {
			ticks++
			if ticks == 5 {
				close(enough)
			}
		})
	})
	select {
	case <-enough:
	case <-time.After(5 * time.Second):
		t.Fatal("periodic timer did not tick 5 times")
	}
	var atStop int
	s.Do(func() {
		if !tm.Stop() {
			t.Error("Stop should report true on a running periodic timer")
		}
		atStop = ticks
	})
	time.Sleep(20 * time.Millisecond)
	s.Do(func() {
		if ticks != atStop {
			t.Errorf("%d ticks after Stop", ticks-atStop)
		}
	})
}
