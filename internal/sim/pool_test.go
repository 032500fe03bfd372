package sim

import (
	"testing"
	"time"
)

func TestDoAfterPreservesFIFOWithAfter(t *testing.T) {
	// Pooled and unpooled events at the same timestamp must still fire in
	// scheduling order — the seq tie-break applies to both.
	s := New()
	var order []int
	s.After(time.Millisecond, func() { order = append(order, 0) })
	s.DoAfter(time.Millisecond, func() { order = append(order, 1) })
	s.After(time.Millisecond, func() { order = append(order, 2) })
	s.DoAfter(time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v, want 0..3", order)
		}
	}
}

func TestDoAfterRecyclesEventNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("the wheel-level sync.Pool drops random Puts under the race detector; steady-state alloc counts are nondeterministic")
	}
	s := New()
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	s.DoAfter(0, fn)
	s.Step()
	allocs := testing.AllocsPerRun(200, func() {
		s.DoAfter(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("DoAfter+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func TestSelfRearmingTickReusesOneNode(t *testing.T) {
	// The recycle-before-fire ordering in Step means a tick that reschedules
	// itself keeps reusing the node it just fired from.
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.DoAfter(time.Millisecond, tick)
		}
	}
	s.DoAfter(time.Millisecond, tick)
	s.Run()
	if n != 1000 {
		t.Fatalf("tick fired %d times, want 1000", n)
	}
	if len(s.free) != 1 {
		t.Fatalf("freelist holds %d nodes after a single tick chain, want 1", len(s.free))
	}
}

func TestDoAtPanicsOnPastTimestamp(t *testing.T) {
	s := New()
	s.DoAfter(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("DoAt in the past did not panic")
		}
	}()
	s.DoAt(s.Now()-1, func() {})
}

func TestPooledAndCancellableEventsCoexist(t *testing.T) {
	// A cancelled At event must not disturb pooled events around it.
	s := New()
	fired := 0
	e := s.After(time.Millisecond, func() { fired += 100 })
	s.DoAfter(time.Millisecond, func() { fired++ })
	s.Cancel(e)
	s.DoAfter(2*time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (cancelled event must not run)", fired)
	}
}

func TestDoAtArgInterleavesWithDoAtInSeqOrder(t *testing.T) {
	// At equal timestamps every entry point fires in scheduling order: they
	// share the seq counter and the one dispatch path.
	s := New()
	var order []int
	record := func(arg any) { order = append(order, arg.(int)) }
	at := Time(time.Millisecond)
	s.DoAtArg(at, record, 0)
	s.DoAt(at, func() { order = append(order, 1) })
	s.At(at, func() { order = append(order, 2) })
	s.DoAtArg(at, record, 3)
	s.DoAfter(time.Millisecond, func() { order = append(order, 4) })
	s.DoAtArg(at, record, 5)
	s.Run()
	if len(order) != 6 {
		t.Fatalf("fired %v, want 0..5", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v, want 0..5", order)
		}
	}
}

func TestDoAtArgRecyclesEventNodes(t *testing.T) {
	s := New()
	n := 0
	var tick func(any)
	tick = func(arg any) {
		n += arg.(int)
		if n < 1000 {
			s.DoAtArg(s.Now()+Time(time.Millisecond), tick, 1)
		}
	}
	s.DoAtArg(0, tick, 1)
	s.Run()
	if n != 1000 {
		t.Fatalf("tick fired %d times, want 1000", n)
	}
	if len(s.free) != 1 {
		t.Fatalf("freelist holds %d nodes after a single DoAtArg chain, want 1", len(s.free))
	}
	if raceEnabled {
		return // the wheel-level sync.Pool drops random Puts under -race
	}
	arg := &struct{ x int }{}
	fn := func(a any) { a.(*struct{ x int }).x++ }
	allocs := testing.AllocsPerRun(200, func() {
		s.DoAtArg(s.Now()+Time(time.Microsecond), fn, arg)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("DoAtArg+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if arg.x != 201 {
		t.Fatalf("callback ran %d times, want 201", arg.x)
	}
}

func TestDoAtArgPending(t *testing.T) {
	s := New()
	nop := func(any) {}
	s.DoAtArg(Time(time.Millisecond), nop, nil)
	s.DoAtArg(Time(2*time.Millisecond), nop, nil)
	s.DoAt(Time(2*time.Millisecond), func() {})
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d with three events queued, want 3", got)
	}
	s.Step()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d after one fire, want 2", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Run, want 0", got)
	}
}

func TestDoAtArgPanicsOnPastTimestamp(t *testing.T) {
	s := New()
	s.DoAfter(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("DoAtArg in the past did not panic")
		}
	}()
	s.DoAtArg(s.Now()-1, func(any) {}, nil)
}

func TestRecycledNodeHoldsNoArg(t *testing.T) {
	// A fired node sits on the freelist until reused; it must not keep the
	// caller's record (or a DoAt closure) reachable meanwhile.
	s := New()
	s.DoAtArg(Time(time.Millisecond), func(any) {}, &struct{ big [1 << 10]byte }{})
	s.DoAt(Time(2*time.Millisecond), func() {})
	s.Run()
	if len(s.free) != 2 {
		t.Fatalf("freelist holds %d nodes, want 2", len(s.free))
	}
	for i, e := range s.free {
		if e.arg != nil || e.fn != nil {
			t.Fatalf("recycled node %d still holds fn=%v arg=%v", i, e.fn != nil, e.arg)
		}
	}
}
