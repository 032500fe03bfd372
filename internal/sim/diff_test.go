package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refSched is a minimal binary-heap reference dispatcher with the same
// (at, seq) total order as Scheduler. The wheel/overflow/ticker machinery
// in the real scheduler must reproduce its firing order exactly; the
// differential tests below (and BenchmarkSchedulerDense in
// sched_bench_test.go) compare the two on randomized workloads.
type refSched struct {
	now Time
	seq uint64
	h   refHeap
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
}

type refHeap []*refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(e *refEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() *refEvent {
	old := *h
	n := len(old)
	e := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	i, n := 0, n-1
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
	return e
}

func (r *refSched) at(at Time, fn func()) *refEvent {
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	r.h.push(e)
	return e
}

func (r *refSched) step() bool {
	for len(r.h) > 0 {
		e := r.h.pop()
		if e.cancel {
			continue
		}
		r.now = e.at
		e.fn()
		return true
	}
	return false
}

// randomDelay spans sub-quantum jitter up to beyond the wheel horizon so the
// differential workload exercises every level plus the overflow heap.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return time.Duration(rng.Intn(4096)) // sub-quantum
	case 4, 5:
		return time.Duration(rng.Intn(1 << 20)) // within level 0
	case 6:
		return time.Duration(rng.Intn(1 << 28)) // level 1
	case 7:
		return time.Duration(rng.Intn(1 << 36)) // level 2
	case 8:
		return time.Duration(rng.Intn(1 << 44)) // level 3
	default:
		return time.Duration(1<<44 + rng.Int63n(1<<45)) // beyond the horizon
	}
}

// diffWorkload is a deterministic self-scheduling program: event i fires,
// optionally spawns children with tape-driven delays, and occasionally
// cancels the most recently scheduled still-pending event. Both schedulers
// replay the identical tape, so their firing sequences must match exactly.
type diffTape struct {
	delay   []time.Duration
	spawn   []int
	cancelK []int
}

func makeTape(seed int64, n int) diffTape {
	rng := rand.New(rand.NewSource(seed))
	t := diffTape{
		delay:   make([]time.Duration, n),
		spawn:   make([]int, n),
		cancelK: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.delay[i] = randomDelay(rng)
		t.spawn[i] = rng.Intn(3)
		t.cancelK[i] = rng.Intn(8)
	}
	return t
}

// runDiffWorkload drives the tape through a scheduler abstracted as a
// schedule function (returning a cancel thunk) plus a step function, and
// records the firing order of event IDs.
func runDiffWorkload(tape diffTape, maxEvents int,
	schedule func(d time.Duration, fn func()) (cancel func()),
	step func() bool) []int {

	var order []int
	var cancels []func()
	next := 0

	var body func(id int)
	body = func(id int) {
		order = append(order, id)
		for i := 0; i < tape.spawn[id%len(tape.spawn)] && next < maxEvents; i++ {
			nid := next
			next++
			d := tape.delay[nid%len(tape.delay)]
			cancels = append(cancels, schedule(d, func() { body(nid) }))
		}
		if tape.cancelK[id%len(tape.cancelK)] == 0 && len(cancels) > 0 {
			cancels[len(cancels)-1]()
			cancels = cancels[:len(cancels)-1]
		}
	}
	for i := 0; i < 64 && next < maxEvents; i++ {
		nid := next
		next++
		d := tape.delay[nid%len(tape.delay)]
		cancels = append(cancels, schedule(d, func() { body(nid) }))
	}
	for step() {
	}
	return order
}

// TestWheelMatchesReferenceHeap fires the same randomized self-scheduling
// workload through the wheel scheduler and the reference heap and requires
// an identical firing sequence.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		tape := makeTape(trial*7919+1, 512)

		s := New()
		got := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			e := s.After(d, fn)
			return func() { s.Cancel(e) }
		}, s.Step)

		r := &refSched{}
		want := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			e := r.at(r.now.Add(d), fn)
			return func() { e.cancel = true }
		}, r.step)

		if len(got) != len(want) {
			t.Fatalf("trial %d: wheel fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverged at index %d: wheel=%d reference=%d (context got=%v want=%v)",
					trial, i, got[i], want[i], tail(got, i), tail(want, i))
			}
		}
	}
}

// TestMixedEntriesMatchReferenceHeap replays the randomized workload with
// every scheduling entry in rotation — cancellable After, closure DoAt and
// closure-free DoAtArg — and requires the reference heap's firing order.
// Pooled events hand out no handle, so their cancel thunk is a no-op on
// both sides.
func TestMixedEntriesMatchReferenceHeap(t *testing.T) {
	type box struct{ fn func() }
	fire := func(arg any) { arg.(*box).fn() }
	for trial := int64(0); trial < 25; trial++ {
		tape := makeTape(trial*104729+3, 512)

		s := New()
		k := 0
		got := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			k++
			switch k % 3 {
			case 0:
				e := s.After(d, fn)
				return func() { s.Cancel(e) }
			case 1:
				s.DoAt(s.Now().Add(d), fn)
			default:
				s.DoAtArg(s.Now().Add(d), fire, &box{fn})
			}
			return func() {}
		}, s.Step)

		r := &refSched{}
		k = 0
		want := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			k++
			e := r.at(r.now.Add(d), fn)
			if k%3 == 0 {
				return func() { e.cancel = true }
			}
			return func() {}
		}, r.step)

		if len(got) != len(want) {
			t.Fatalf("trial %d: wheel fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverged at index %d: wheel=%d reference=%d (context got=%v want=%v)",
					trial, i, got[i], want[i], tail(got, i), tail(want, i))
			}
		}
	}
}

func tail(xs []int, i int) []int {
	lo := i - 3
	if lo < 0 {
		lo = 0
	}
	hi := i + 4
	if hi > len(xs) {
		hi = len(xs)
	}
	return xs[lo:hi]
}
