// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every Wi-LE experiment runs on top of this kernel: the radio medium, the
// MAC state machines, device power models and the measurement instrument all
// schedule work on a single virtual clock. Runs are fully deterministic for
// a given seed, which keeps every experiment in EXPERIMENTS.md repeatable.
//
// Events carry an absolute virtual timestamp and fire in time order, FIFO
// among equal timestamps. There is no wall-clock coupling anywhere;
// simulating a 10-minute sleep costs one queue operation.
//
// Internally the pending set is a hierarchical timing wheel (see DESIGN.md
// §11): near-future events hash into per-level buckets in O(1), bucket
// contents are sorted by (time, seq) only when their quantum becomes due,
// and events beyond the wheel horizon park in a classic binary heap until
// their window arrives — so correctness never depends on the horizon. Dense
// periodic trains (the 50 kSa/s meter) bypass per-event bookkeeping
// entirely through Ticker, which the dispatcher interleaves with ordinary
// events under the same (time, seq) total order.
//
// Scheduling entries, from general to hot: At/After return a cancellable
// handle; DoAt/DoAfter are fire-and-forget on recycled event nodes; DoAtArg
// is DoAt without the closure — use it on per-frame or per-segment paths
// where building a closure per event would be the allocation, passing a
// function bound once (a method value stored at construction) and the
// event's state as arg. All of them share one dispatch path: a node holds
// fn(arg), and DoAt/At reach it through a static func() trampoline.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds from the start of the
// simulation. It intentionally mirrors time.Duration semantics (signed 64-bit
// nanoseconds) so arithmetic with time.Duration reads naturally.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t (interpreted as a span) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the span t-u as a time.Duration.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the timestamp as seconds with microsecond precision, the
// resolution used throughout the paper's figures.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromDuration converts a span to a virtual timestamp measured from zero.
func FromDuration(d time.Duration) Time { return Time(d) }

// Timing-wheel geometry. A quantum is the wheel's unit of time: 2^quantumBits
// nanoseconds (4.096 µs). Each level holds wheelSlots buckets; level l covers
// spans up to wheelSlots^(l+1) quanta, so four levels reach ~4.8 simulated
// hours before the overflow heap takes over. Within a quantum events are
// sorted by (time, seq) at dispatch, so the wheel's bucketing is invisible
// to the firing order.
const (
	quantumBits = 12
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
)

// Event is a scheduled callback.
type Event struct {
	at  Time
	seq uint64 // tie-breaker: preserves scheduling order at equal times
	// fn(arg) is the callback. Every event, however scheduled, fires through
	// this one call; a plain func() rides as arg of the callFunc trampoline.
	fn     func(any)
	arg    any
	link   *Event // intrusive next pointer while parked in a wheel bucket
	idx    int    // overflow-heap index, or one of the idx* sentinels
	cancel bool
	// pooled marks events scheduled through DoAt/DoAtArg/DoAfter: the
	// scheduler recycles them after they fire, so no *Event for them ever
	// escapes to callers (a retained pointer could Cancel a stranger's
	// event after recycling).
	pooled bool
}

// Sentinels for Event.idx when the event is not in the overflow heap.
const (
	idxFired = -1 // popped, fired, or fully cancelled
	idxWheel = -2 // parked in a timing-wheel bucket
	idxDue   = -3 // in the sorted due-run awaiting dispatch
)

// Cancelled reports whether the event was cancelled before it fired.
func (e *Event) Cancelled() bool { return e.cancel }

// At reports the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func eventCmp(a, b *Event) int {
	switch {
	case eventLess(a, b):
		return -1
	case eventLess(b, a):
		return 1
	}
	return 0
}

type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = idxFired
	*h = old[:n-1]
	return e
}

// wheelLevel is one ring of the hierarchical wheel: a bucket per slot
// (intrusive singly-linked, so parking an event never allocates) plus an
// occupancy bitmap for O(1) next-slot scans.
type wheelLevel struct {
	slots [wheelSlots]*Event
	occ   [wheelSlots / 64]uint64
	count int
}

// nextSlot reports the first occupied slot index >= from, or -1.
func (l *wheelLevel) nextSlot(from int) int {
	if l == nil || l.count == 0 {
		return -1
	}
	w := from >> 6
	word := l.occ[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(l.occ) {
			return -1
		}
		word = l.occ[w]
	}
}

// push parks e in the bucket for slot.
func (l *wheelLevel) push(slot int, e *Event) {
	e.idx = idxWheel
	e.link = l.slots[slot]
	l.slots[slot] = e
	l.occ[slot>>6] |= 1 << (uint(slot) & 63)
	l.count++
}

// levelPool recycles wheel levels across schedulers. A level is ~2 KB of
// slot pointers; without pooling it would dominate the allocation profile
// of short-lived kernels (the engine builds one scheduler per sweep run).
// Levels enter the pool only when empty, and drains zero slots and
// occupancy bits as they go, so a pooled level is always ready to reuse.
var levelPool = sync.Pool{New: func() any { return new(wheelLevel) }}

// releaseLevel returns level lev, which must be empty, to the shared pool.
func (s *Scheduler) releaseLevel(lev int) {
	levelPool.Put(s.levels[lev])
	s.levels[lev] = nil
}

// Scheduler owns the virtual clock and the pending event set.
// The zero value is ready to use.
type Scheduler struct {
	// OnDispatch, when non-nil, observes every fired event (and every
	// Ticker fire) just after the clock advances to its timestamp and
	// before its callback runs. It is the kernel's observability hook
	// (obs.ObserveScheduler wires it to a trace recorder); a nil hook
	// costs one branch per dispatch and no allocations. The hook must not
	// schedule or cancel events. Setting it disables Ticker batch firing,
	// so the firehose records every tick individually, exactly as if each
	// tick were an ordinary event.
	OnDispatch func(at Time)

	now     Time
	seq     uint64
	stopped bool
	fired   uint64
	pending int

	// due is the sorted dispatch run: every event of the quantum currently
	// being drained (plus any event scheduled, mid-drain, for a timestamp
	// the wheel cursor already passed — still in the future, just below
	// doneQ). due[dueIdx:] is sorted by (at, seq) and is always globally
	// minimal: the wheel and overflow heap only hold events in quanta
	// >= doneQ.
	due    []*Event
	dueIdx int
	// doneQ: every wheel quantum < doneQ has been moved to due already.
	doneQ  int64
	levels [wheelLevels]*wheelLevel // allocated lazily per level
	// overflow keeps events beyond the wheel horizon (a different
	// top-level window than doneQ); they migrate into the due run when
	// their quantum becomes the earliest pending work.
	overflow eventHeap
	// tickers are the active periodic trains, dispatched under the same
	// (time, seq) order as events.
	tickers []*Ticker
	// free is the recycled-event freelist backing DoAt/DoAtArg. A plain
	// slice, not a sync.Pool: each kernel is single-goroutine by design
	// (the experiment engine parallelizes across kernels, never within
	// one), so no synchronization is needed and nodes stay warm in cache.
	free []*Event
}

// New returns a scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events waiting to fire; an active Ticker
// counts as one pending event (its next fire).
func (s *Scheduler) Pending() int { return s.pending + len(s.tickers) }

// Fired reports how many events (including ticker fires) have been executed
// so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// place files e into the due run, a wheel bucket, or the overflow heap,
// according to its quantum's distance from the wheel cursor.
func (s *Scheduler) place(e *Event) {
	q := int64(e.at) >> quantumBits
	if q < s.doneQ {
		s.dueInsert(e)
		return
	}
	for lev := 0; lev < wheelLevels; lev++ {
		if q>>(wheelBits*(lev+1)) == s.doneQ>>(wheelBits*(lev+1)) {
			l := s.levels[lev]
			if l == nil {
				l = levelPool.Get().(*wheelLevel)
				s.levels[lev] = l
			}
			l.push(int(q>>(wheelBits*lev))&wheelMask, e)
			return
		}
	}
	heap.Push(&s.overflow, e)
}

// dueInsert places e at its sorted position in the pending part of the due
// run. New events always sort at or after dueIdx: their timestamp is >= now,
// and everything already consumed fired at times <= now.
func (s *Scheduler) dueInsert(e *Event) {
	e.idx = idxDue
	lo, hi := s.dueIdx, len(s.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(s.due[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.due = append(s.due, nil)
	copy(s.due[lo+1:], s.due[lo:])
	s.due[lo] = e
}

// cascadeSlot drains one bucket of level lev, re-placing its events into
// lower levels (or the due run) relative to the current cursor.
func (s *Scheduler) cascadeSlot(lev, slot int) {
	l := s.levels[lev]
	e := l.slots[slot]
	l.slots[slot] = nil
	l.occ[slot>>6] &^= 1 << (uint(slot) & 63)
	for e != nil {
		next := e.link
		e.link = nil
		l.count--
		s.place(e)
		e = next
	}
	if l.count == 0 {
		s.releaseLevel(lev)
	}
}

// nextQuantum finds the earliest wheel quantum holding events, cascading
// higher-level buckets down as their windows become current. It advances
// doneQ to the base of any not-yet-current cascaded window.
func (s *Scheduler) nextQuantum() (int64, bool) {
	for {
		// First cascade any higher-level slot whose window has become
		// current: refill advances doneQ in quantum steps and crosses
		// window boundaries without touching the wheel, which can leave
		// events parked one level above where the cursor now points. An
		// L0 scan alone would never see them.
		current := false
		for lev := 1; lev < wheelLevels; lev++ {
			l := s.levels[lev]
			if l == nil || l.count == 0 {
				continue
			}
			digit := int(s.doneQ>>(wheelBits*lev)) & wheelMask
			if l.occ[digit>>6]&(1<<(uint(digit)&63)) != 0 {
				s.cascadeSlot(lev, digit)
				current = true
			}
		}
		if current {
			continue
		}
		if l := s.levels[0]; l != nil && l.count > 0 {
			if slot := l.nextSlot(int(s.doneQ & wheelMask)); slot >= 0 {
				return s.doneQ&^wheelMask | int64(slot), true
			}
		}
		// The current window is empty at every level: advance the cursor
		// to the earliest future higher-level slot and cascade it.
		cascaded := false
		for lev := 1; lev < wheelLevels; lev++ {
			l := s.levels[lev]
			if l == nil || l.count == 0 {
				continue
			}
			slot := l.nextSlot(int(s.doneQ>>(wheelBits*lev)) & wheelMask)
			if slot < 0 {
				continue
			}
			span := int64(1) << (wheelBits * lev)
			base := s.doneQ&^(span<<wheelBits-1) | int64(slot)*span
			if base > s.doneQ {
				s.doneQ = base
			}
			s.cascadeSlot(lev, slot)
			cascaded = true
			break
		}
		if !cascaded {
			return 0, false
		}
	}
}

// refillDue resets the due run and loads the earliest pending quantum from
// the wheel and/or the overflow heap, sorted by (at, seq). It reports false
// when no events remain anywhere.
func (s *Scheduler) refillDue() bool {
	s.due = s.due[:0]
	s.dueIdx = 0
	wq, wok := s.nextQuantum()
	ook := len(s.overflow) > 0
	var oq int64
	if ook {
		oq = int64(s.overflow[0].at) >> quantumBits
	}
	if !wok && !ook {
		return false
	}
	q := wq
	if !wok || (ook && oq < wq) {
		q = oq
	}
	if wok && q == wq {
		l := s.levels[0]
		slot := int(q & wheelMask)
		e := l.slots[slot]
		l.slots[slot] = nil
		l.occ[slot>>6] &^= 1 << (uint(slot) & 63)
		for e != nil {
			next := e.link
			e.link = nil
			e.idx = idxDue
			l.count--
			s.due = append(s.due, e)
			e = next
		}
		if l.count == 0 {
			s.releaseLevel(0)
		}
	}
	for len(s.overflow) > 0 && int64(s.overflow[0].at)>>quantumBits == q {
		e := heap.Pop(&s.overflow).(*Event)
		e.idx = idxDue
		s.due = append(s.due, e)
	}
	if len(s.due) > 1 {
		slices.SortFunc(s.due, eventCmp)
	}
	if q >= s.doneQ {
		s.doneQ = q + 1
	}
	return true
}

// peek returns the next uncancelled event without dispatching it, or nil
// when none remain. It may migrate events from the wheel and overflow heap
// into the due run.
func (s *Scheduler) peek() *Event {
	for {
		for s.dueIdx < len(s.due) {
			e := s.due[s.dueIdx]
			if e.cancel {
				e.idx = idxFired
				s.due[s.dueIdx] = nil
				s.dueIdx++
				continue
			}
			// A cascade may have advanced doneQ past quanta still parked
			// in the overflow heap (cascade bases derive from wheel slots
			// only); later due inserts can then be outrun by an earlier
			// overflow event. Migrate any such quantum into the due run
			// before handing out the head.
			if len(s.overflow) > 0 && eventLess(s.overflow[0], e) {
				q := int64(s.overflow[0].at) >> quantumBits
				for len(s.overflow) > 0 && int64(s.overflow[0].at)>>quantumBits == q {
					s.dueInsert(heap.Pop(&s.overflow).(*Event))
				}
				continue
			}
			return e
		}
		if !s.refillDue() {
			return nil
		}
	}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (at < Now) panics: it is always a logic error in a protocol model,
// and silently reordering time makes power integrals wrong.
func (s *Scheduler) At(at Time, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	e := &Event{at: at, seq: s.seq, fn: callFunc, arg: fn}
	s.seq++
	s.pending++
	s.place(e)
	return e
}

// callFunc is the static trampoline that runs a plain func() callback
// through the kernel's single fn(arg) dispatch. A func value is
// pointer-shaped, so boxing it in arg allocates nothing.
func callFunc(arg any) { arg.(func())() }

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// DoAt schedules fn at the absolute virtual time at on a recycled event
// node. It is the fire-and-forget variant of At for hot paths that never
// cancel: the event node comes from the scheduler's freelist and returns
// to it after firing, so steady-state scheduling allocates nothing.
// Because the node is recycled the caller gets no handle — anything that
// might need Cancel must use At/After instead.
func (s *Scheduler) DoAt(at Time, fn func()) { s.DoAtArg(at, callFunc, fn) }

// DoAtArg schedules fn(arg) at the absolute virtual time at on a recycled
// event node; see DoAt. It lets a hot path schedule without building a
// closure: fn is bound once (a method value or package function) and the
// per-event state travels in arg, typically a pointer to a recycled
// record. The node drops arg when it fires, so a recycled node never pins
// the caller's record.
func (s *Scheduler) DoAtArg(at Time, fn func(any), arg any) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at, e.fn, e.arg, e.cancel = at, fn, arg, false
	} else {
		e = &Event{at: at, fn: fn, arg: arg}
	}
	e.pooled = true
	e.seq = s.seq
	s.seq++
	s.pending++
	s.place(e)
}

// DoAfter schedules fn to run d after the current virtual time on a
// recycled event node; see DoAt.
func (s *Scheduler) DoAfter(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.DoAt(s.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op, so callers can cancel defensively.
// Wheel-parked events cancel lazily: the node is skipped (and released)
// when its quantum drains.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.cancel || e.idx == idxFired {
		if e != nil {
			e.cancel = true
		}
		return
	}
	e.cancel = true
	s.pending--
	if e.idx >= 0 {
		heap.Remove(&s.overflow, e.idx)
		e.idx = idxFired
	}
}

// dispatch fires e, the head of the due run.
func (s *Scheduler) dispatch(e *Event) {
	s.due[s.dueIdx] = nil
	s.dueIdx++
	e.idx = idxFired
	s.pending--
	s.now = e.at
	s.fired++
	if s.OnDispatch != nil {
		s.OnDispatch(e.at)
	}
	fn, arg := e.fn, e.arg
	if e.pooled {
		// Recycle before running fn so a callback that schedules another
		// pooled event (the self-rearming tick pattern) reuses this node.
		e.fn, e.arg = nil, nil
		s.free = append(s.free, e)
	}
	fn(arg)
}

// Step fires the next pending event or ticker fire, advancing the clock to
// its timestamp. It reports false when nothing remains.
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	e := s.peek()
	t := s.nextTicker()
	if t != nil && (e == nil || t.next < e.at || (t.next == e.at && t.seq < e.seq)) {
		s.fireTick(t)
		return true
	}
	if e == nil {
		return false
	}
	s.dispatch(e)
	return true
}

// Run fires events until none remain or Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// pending. Ticker trains with a batch handler fire in closed-form batches
// across event-free stretches (see Ticker).
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.stopped {
		e := s.peek()
		t := s.nextTicker()
		if t != nil && (e == nil || t.next < e.at || (t.next == e.at && t.seq < e.seq)) {
			if t.next > deadline {
				break
			}
			limit := deadline
			if e != nil && e.at-1 < limit {
				limit = e.at - 1
			}
			if !s.fireBatch(t, limit) {
				s.fireTick(t)
			}
			continue
		}
		if e == nil || e.at > deadline {
			break
		}
		s.dispatch(e)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor is RunUntil(Now+d).
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Stop halts Run/RunUntil after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Resume clears a previous Stop.
func (s *Scheduler) Resume() { s.stopped = false }

// Ticker is a first-class periodic event train: one fire callback every
// period, interleaved with ordinary events under the exact (time, seq)
// order a self-rearming DoAfter chain would produce — each fire consumes
// the seq its rearm would have held, and reallocates the next one when the
// callback returns — but without a queue operation per fire. A train with a
// batch handler additionally collapses event-free stretches: RunUntil
// invokes batch(from, n) once for n consecutive fires with no intervening
// event, which is how the 50 kSa/s meter samples a 2-second window in a
// handful of calls. Handlers must not schedule or cancel events from inside
// a batch call (single fires may), or the seq emulation breaks.
type Ticker struct {
	sched   *Scheduler
	next    Time
	period  Time
	seq     uint64
	fire    func(at Time)
	batch   func(from Time, n int)
	stopped bool
}

// Tick starts a periodic train firing at start, start+period, ... until
// Stop. The first fire's position among equal-timestamp events matches an
// event scheduled by At(start, ...) at this call site.
func (s *Scheduler) Tick(start Time, period time.Duration, fire func(at Time)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	if start < s.now {
		panic(fmt.Sprintf("sim: ticker start %v before now %v", start, s.now))
	}
	t := &Ticker{sched: s, next: start, period: Time(period), fire: fire, seq: s.seq}
	s.seq++
	s.tickers = append(s.tickers, t)
	return t
}

// SetBatch installs the closed-form batch handler; see Ticker. Batching is
// suppressed while OnDispatch is set, so the scheduler firehose observes
// every individual fire.
func (t *Ticker) SetBatch(fn func(from Time, n int)) { t.batch = fn }

// Next reports the virtual time of the next scheduled fire.
func (t *Ticker) Next() Time { return t.next }

// Stop halts the train; no further fires occur. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	s := t.sched
	for i, x := range s.tickers {
		if x == t {
			s.tickers = append(s.tickers[:i], s.tickers[i+1:]...)
			break
		}
	}
}

// nextTicker returns the active train with the earliest (next, seq) fire.
func (s *Scheduler) nextTicker() *Ticker {
	var best *Ticker
	for _, t := range s.tickers {
		if best == nil || t.next < best.next || (t.next == best.next && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

// fireTick dispatches one ticker fire.
func (s *Scheduler) fireTick(t *Ticker) {
	at := t.next
	s.now = at
	s.fired++
	if s.OnDispatch != nil {
		s.OnDispatch(at)
	}
	t.fire(at)
	if !t.stopped {
		t.next = at + t.period
		t.seq = s.seq
		s.seq++
	}
}

// fireBatch dispatches every fire of t up to and including limit as one
// batch call, provided a batch handler is installed and the firehose is
// off. The seq bookkeeping is exactly the per-fire path repeated: each fire
// consumes the pending seq and allocates the next, with nothing in between
// (the caller guarantees no event lies inside the batch window).
func (s *Scheduler) fireBatch(t *Ticker, limit Time) bool {
	if t.batch == nil || s.OnDispatch != nil || limit < t.next {
		return false
	}
	k := int64((limit-t.next)/t.period) + 1
	from := t.next
	s.now = from + Time(k-1)*t.period
	s.fired += uint64(k)
	t.next = from + Time(k)*t.period
	t.seq = s.seq + uint64(k) - 1
	s.seq += uint64(k)
	t.batch(from, int(k))
	return true
}
