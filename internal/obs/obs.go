// Package obs is the simulator's observability layer: a sim-time trace
// recorder and a metrics registry that turn one run into the two views a
// production system is debugged through — a timeline and a set of counters.
//
// The paper's entire argument is a waveform (Figures 3a/3b are
// current-vs-time traces, Table 1 is their integral), so the layer is built
// around the same discipline as the simulation itself: every recorded
// event is keyed exclusively on sim.Time. No wall clock, no goroutine IDs,
// no map iteration feeds an export, which makes traces and metric
// snapshots byte-identical across runs and across GOMAXPROCS — the engine
// determinism contract (DESIGN.md §7) extended to observability.
//
// Cost model. Instrumented packages never call into obs unconditionally:
// every hook is a nil-guarded pointer in the host struct (the same pattern
// as mac.Port.Monitor), so a simulation with observability disabled pays
// one predictable branch per hook site and zero allocations — proven by
// BenchmarkObsDisabled. The wile-vet obsguard analyzer enforces the guard
// mechanically. With a Recorder attached, recording one event is an append
// to an in-memory slice; formatting work happens only at export time.
//
// Trace model. A Recorder owns a set of named tracks (one per device, MAC
// port, or instrument) and an ordered event log of slices (Span, Begin/End),
// instants and counter samples, held in one []Event. Every timeline the
// simulator records is a Figure 3 window, so even the firehose view (-sched,
// ~100k events) is a few megabytes of log. WriteChromeTrace exports the log
// in the Chrome trace-event JSON format, which https://ui.perfetto.dev opens
// directly as a timeline: tracks become threads, counter tracks become
// counter lanes. Export is a pure function of the track list and the event
// log.
package obs

import (
	"fmt"
	"io"
	"strconv"

	"wile/internal/sim"
)

// TrackID names one timeline lane of a Recorder.
type TrackID int32

// phase codes, matching the Chrome trace-event "ph" field.
const (
	phSpan    = 'X' // complete slice: ts + dur
	phBegin   = 'B' // open slice
	phEnd     = 'E' // close the innermost open slice
	phInstant = 'i' // instant
	phCounter = 'C' // counter sample
)

// Event is one recorded trace event, stored raw and formatted only at
// export: the export bytes are a pure function of this struct's fields.
type Event struct {
	At    sim.Time
	Dur   sim.Time
	Value float64
	Name  string
	Track TrackID
	Ph    byte
}

// Recorder collects sim-time-stamped trace events into one in-memory log.
//
// A Recorder is intentionally not synchronized: each simulation kernel is
// single-goroutine by design (the experiment engine parallelizes across
// kernels, never within one), so a Recorder must be attached to exactly
// one kernel's components. Parallel sweeps that want traces attach one
// Recorder per point.
type Recorder struct {
	tracks []string
	events []Event
	// open tracks the begin-timestamps of the open slices per track, so
	// End can clamp a close that would travel back in time (a negative
	// duration renders as garbage in every trace viewer).
	open [][]sim.Time
}

// NewRecorder returns an empty recorder. The log starts with room for 4096
// events, enough for a Figure 3 timeline without the scheduler firehose.
func NewRecorder() *Recorder { return &Recorder{events: make([]Event, 0, 4096)} }

// Track registers a new timeline lane and returns its id. Tracks appear in
// the exported trace in registration order.
func (r *Recorder) Track(name string) TrackID {
	r.tracks = append(r.tracks, name)
	r.open = append(r.open, nil)
	return TrackID(len(r.tracks) - 1)
}

// Tracks reports the number of registered tracks.
func (r *Recorder) Tracks() int { return len(r.tracks) }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// record appends one event to the log.
func (r *Recorder) record(e Event) { r.events = append(r.events, e) }

// Span records a complete slice [start, end) on the track. Spans may be
// recorded at the moment they end (the natural point for a state machine
// that learns durations retroactively); export order is record order and
// the format does not require time-sorted events. An end before start is a
// caller bug that would export a negative duration; it is clamped to a
// zero-length slice at start.
func (r *Recorder) Span(track TrackID, start, end sim.Time, name string) {
	if end < start {
		end = start
	}
	r.record(Event{Ph: phSpan, Track: track, At: start, Dur: end - start, Name: name})
}

// Begin opens a slice on the track. Slices on one track must nest; an
// unmatched Begin stays open to the end of the trace, which Perfetto
// renders as running off the right edge — exactly right for "the state the
// device was left in".
func (r *Recorder) Begin(track TrackID, at sim.Time, name string) {
	r.open[track] = append(r.open[track], at)
	r.record(Event{Ph: phBegin, Track: track, At: at, Name: name})
}

// End closes the innermost open slice on the track. An End before the
// matching Begin would export a negative duration; it is clamped to the
// Begin's timestamp.
func (r *Recorder) End(track TrackID, at sim.Time) {
	if stack := r.open[track]; len(stack) > 0 {
		if begin := stack[len(stack)-1]; at < begin {
			at = begin
		}
		r.open[track] = stack[:len(stack)-1]
	}
	r.record(Event{Ph: phEnd, Track: track, At: at})
}

// Instant records a zero-duration event on the track.
func (r *Recorder) Instant(track TrackID, at sim.Time, name string) {
	r.record(Event{Ph: phInstant, Track: track, At: at, Name: name})
}

// Counter records a sample of the track's counter series; the track name is
// the series name. Callers that sample a mostly-flat signal should record
// only on change — the meter does — so a 50 kSa/s waveform costs one event
// per plateau rather than one per sample.
func (r *Recorder) Counter(track TrackID, at sim.Time, value float64) {
	r.record(Event{Ph: phCounter, Track: track, At: at, Value: value})
}

// ObserveScheduler wires the kernel's dispatch hook to an instant event per
// fired simulation event on the given track. This is the firehose view —
// every timer tick and meter sample becomes an event — so figure-scale runs
// keep it off and debugging sessions (wile-trace -sched) turn it on.
func ObserveScheduler(r *Recorder, sched *sim.Scheduler, track TrackID) {
	sched.OnDispatch = func(at sim.Time) { r.Instant(track, at, "dispatch") }
}

// exportBlock is how many formatted bytes an export gathers before handing
// them to the writer.
const exportBlock = 32 << 10

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), ready for
// https://ui.perfetto.dev or chrome://tracing. Export reads the log without
// consuming it, so a recorder may be exported, record more, and be
// exported again.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	lw := lineWriter{w: w, buf: make([]byte, 0, 2*exportBlock)}
	lw.buf = append(lw.buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"+
		"{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wile-sim\"}}"...)
	for i, name := range r.tracks {
		lw.buf = fmt.Appendf(lw.buf, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", i+1, quote(name))
		lw.buf = fmt.Appendf(lw.buf, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", i+1, i+1)
		if err := lw.flush(exportBlock); err != nil {
			return err
		}
	}
	for i := range r.events {
		lw.buf = appendEvent(lw.buf, r.tracks, &r.events[i])
		if err := lw.flush(exportBlock); err != nil {
			return err
		}
	}
	lw.buf = append(lw.buf, "\n]}\n"...)
	return lw.flush(0)
}

// appendEvent renders one event as a trace-event line.
func appendEvent(b []byte, tracks []string, e *Event) []byte {
	if e.Ph == phCounter {
		// Counter series attach to the process; the track name is the
		// series name and the single sampled value its only lane.
		b = append(b, ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"...)
		b = appendMicros(b, e.At)
		b = append(b, ",\"name\":"...)
		b = strconv.AppendQuote(b, tracks[e.Track])
		b = append(b, ",\"args\":{\"value\":"...)
		b = appendValue(b, e.Value)
		return append(b, "}}"...)
	}
	switch e.Ph {
	case phSpan:
		b = append(b, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":"...)
	case phBegin:
		b = append(b, ",\n{\"ph\":\"B\",\"pid\":1,\"tid\":"...)
	case phEnd:
		b = append(b, ",\n{\"ph\":\"E\",\"pid\":1,\"tid\":"...)
	case phInstant:
		b = append(b, ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"...)
	}
	b = strconv.AppendInt(b, int64(e.Track)+1, 10)
	b = append(b, ",\"ts\":"...)
	b = appendMicros(b, e.At)
	if e.Ph == phSpan {
		b = append(b, ",\"dur\":"...)
		b = appendMicros(b, e.Dur)
	}
	if e.Ph != phEnd {
		b = append(b, ",\"name\":"...)
		b = strconv.AppendQuote(b, e.Name)
	}
	return append(b, '}')
}

// appendMicros renders a sim.Time (nanoseconds) as the microsecond
// timestamps the trace format uses, with the sub-microsecond remainder as
// three fixed decimals so distinct virtual instants never collapse.
// Negative times carry one leading sign: -1500 ns is "-1.500", never
// "-1.-500".
func appendMicros(b []byte, t sim.Time) []byte {
	u := uint64(t)
	if t < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1000, 10)
	ns := u % 1000
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// quote JSON-escapes a track or event name.
func quote(s string) string { return strconv.Quote(s) }

// appendValue renders a counter sample with the shortest round-trip float
// formatting, which is deterministic for a given bit pattern.
func appendValue(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// lineWriter gathers formatted export lines in one reused buffer and hands
// them to the writer in blocks, latching the first write error.
type lineWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// flush writes the buffer out once it holds at least min bytes.
func (l *lineWriter) flush(min int) error {
	if len(l.buf) >= min && l.err == nil {
		_, l.err = l.w.Write(l.buf)
		l.buf = l.buf[:0]
	}
	return l.err
}

// errWriter latches the first write error so export code reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
