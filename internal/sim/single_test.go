package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// schedule drives a small randomized workload on eng — one-shot timers,
// a periodic timer, pooled deliveries and a cancelled event, all drawing
// from named streams — and returns the (time, tag) log.
func schedule(eng *Engine, run func(time.Duration)) string {
	var log []string
	rec := func(tag string) { log = append(log, fmt.Sprintf("%v %s", eng.Now(), tag)) }
	rng := eng.Rand("load")
	var deliver DeliveryHandler
	deliver = func(from, to uint64, msg any) {
		n := msg.(int)
		rec(fmt.Sprintf("msg %d->%d #%d", from, to, n))
		if n > 0 {
			eng.AfterMsg(time.Duration(rng.Intn(4000))*time.Microsecond, deliver, to, from, n-1)
		}
	}
	for i := 0; i < 5; i++ {
		i := i
		eng.After(time.Duration(rng.Intn(20))*time.Millisecond, func() { rec(fmt.Sprintf("once %d", i)) })
	}
	tick := eng.Every(3*time.Millisecond, func() { rec(fmt.Sprintf("tick %d", eng.Rand("tick").Intn(100))) })
	eng.At(25*time.Millisecond, func() { tick.Stop() })
	eng.After(10*time.Millisecond, func() { rec("cancelled") }).Stop()
	eng.AfterMsg(time.Millisecond, deliver, 0, 1, 6)
	run(30 * time.Millisecond)
	run(40 * time.Millisecond)
	return strings.Join(log, "\n")
}

// The one-engine form is a bare Engine under a coordinator's interface:
// same seed and schedule, same events at the same times in the same order.
func TestSingleEngineMatchesBareEngine(t *testing.T) {
	bare := NewEngine(42)
	want := schedule(bare, func(d time.Duration) { bare.RunUntil(d) })

	se := NewSingleEngine(42)
	got := schedule(se.Control(), se.RunUntil)
	if got != want {
		t.Fatalf("one-engine run diverged from a bare engine:\ngot:\n%s\n\nwant:\n%s", got, want)
	}
	if se.Control().Executed() != bare.Executed() || se.Control().Now() != bare.Now() {
		t.Fatalf("executed %d at %v, bare engine %d at %v",
			se.Control().Executed(), se.Control().Now(), bare.Executed(), bare.Now())
	}
	if se.Now() != 40*time.Millisecond {
		t.Fatalf("Now = %v after RunUntil(40ms)", se.Now())
	}
}

func TestSingleEngineLayout(t *testing.T) {
	se := NewSingleEngine(1)
	if se.NumShards() != 1 || se.Shard(0) != se.Control() {
		t.Fatal("the one engine is not both Control() and the only Shard(0)")
	}
	if se.Contexts() != 1 {
		t.Fatalf("Contexts = %d, want 1", se.Contexts())
	}
	if got := NewShardedEngine(1, 3, time.Millisecond).Contexts(); got != 4 {
		t.Fatalf("sharded Contexts = %d, want shards+1 = 4", got)
	}
}

// Every instant of a one-engine run is quiescent, so RequestBarrier runs
// the hooks, in registration order, before it returns.
func TestSingleEngineRequestBarrierRunsHooksAtOnce(t *testing.T) {
	se := NewSingleEngine(1)
	var order []string
	se.OnBarrier(func() { order = append(order, "a") })
	se.OnBarrier(func() { order = append(order, "b") })
	se.RunUntil(time.Second)
	if len(order) != 0 {
		t.Fatalf("hooks ran without a request: %v", order)
	}
	se.Control().After(time.Millisecond, func() {
		se.RequestBarrier()
		order = append(order, "returned")
	})
	se.RunUntil(2 * time.Second)
	if got := strings.Join(order, ","); got != "a,b,returned" {
		t.Fatalf("order = %s, want a,b,returned", got)
	}
	if full, elided := se.BarrierStats(); full != 0 || elided != 0 {
		t.Fatalf("BarrierStats = %d/%d, want 0/0", full, elided)
	}
}

// The aliased engine is counted once, not as both control and shard.
func TestSingleEngineCountsAliasedEngineOnce(t *testing.T) {
	se := NewSingleEngine(1)
	eng := se.Control()
	for i := 1; i <= 5; i++ {
		eng.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if se.Pending() != 5 || se.PeakPending() != 5 {
		t.Fatalf("Pending/PeakPending = %d/%d before the run, want 5/5", se.Pending(), se.PeakPending())
	}
	se.RunUntil(3 * time.Millisecond)
	if se.Executed() != 3 || se.Pending() != 2 || se.PeakPending() != eng.PeakPending() {
		t.Fatalf("Executed/Pending/PeakPending = %d/%d/%d, want 3/2/%d",
			se.Executed(), se.Pending(), se.PeakPending(), eng.PeakPending())
	}
}
