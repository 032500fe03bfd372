package esp32

import (
	"math"
	"slices"
	"testing"
	"time"

	"wile/internal/sim"
	"wile/internal/units"
)

func TestStateCurrentsMatchPaper(t *testing.T) {
	// Table 1 idle currents and §5.1 figures.
	cases := map[State]units.Amps{
		StateDeepSleep:   units.Amps(2.5e-6),
		StateLightSleep:  units.Amps(0.8e-3),
		StateWiFiPSIdle:  units.Amps(4.5e-3),
		StateCPUActive:   units.Amps(30e-3),
		StateNetworkWait: units.Amps(20e-3),
		StateRadioListen: units.Amps(100e-3),
	}
	for s, want := range cases {
		if got := StateCurrent(s); got != want {
			t.Errorf("%v current = %v, want %v", s, got, want)
		}
	}
}

func TestDeviceStartsInDeepSleep(t *testing.T) {
	s := sim.New()
	d := New(s)
	if d.GetState() != StateDeepSleep {
		t.Fatalf("initial state %v", d.GetState())
	}
	if d.Current() != units.Amps(2.5e-6) {
		t.Fatalf("initial current %v", d.Current())
	}
}

func TestChargeIntegralExact(t *testing.T) {
	s := sim.New()
	d := New(s)
	// 1 s deep sleep + 1 s CPU active + 1 s deep sleep.
	s.After(time.Second, func() { d.SetState(StateCPUActive) })
	s.After(2*time.Second, func() { d.SetState(StateDeepSleep) })
	s.RunUntil(3 * sim.Second)
	want := 2.5e-6*2 + 30e-3*1
	if got := float64(d.Charge()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("charge = %v C, want %v", got, want)
	}
	if got := float64(d.Energy()); math.Abs(got-want*float64(Voltage)) > 1e-12 {
		t.Fatalf("energy = %v J", got)
	}
}

func TestTxBurstOverridesState(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(60 * time.Microsecond)
	if d.Current() != TxBurstCurrent {
		t.Fatalf("current during burst = %v", d.Current())
	}
	s.Run()
	if d.Current() != StateCurrent(StateRadioListen) {
		t.Fatalf("current after burst = %v", d.Current())
	}
	// Energy of the burst window is (ramp+airtime) at TX current.
	want := float64(units.Charge(TxBurstCurrent, TxRampUp+60*time.Microsecond))
	got := float64(d.Charge()) // burst started at t=0
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("burst charge = %v, want ≈%v", got, want)
	}
}

func TestOverlappingTxBurstsExtend(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(100 * time.Microsecond)
	s.After(50*time.Microsecond, func() { d.RadioTx(100 * time.Microsecond) })
	s.Run()
	if d.Current() != StateCurrent(StateRadioListen) {
		t.Fatalf("current after overlapping bursts = %v", d.Current())
	}
	// Union of the two windows: 50µs offset + ramp+100µs = ramp+150µs total.
	want := float64(units.Charge(TxBurstCurrent, TxRampUp+150*time.Microsecond))
	if got := float64(d.Charge()); math.Abs(got-want) > want*0.01 {
		t.Fatalf("charge = %v, want ≈%v", got, want)
	}
}

func TestStateChangeDuringBurstDefersToBurst(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(200 * time.Microsecond)
	s.After(50*time.Microsecond, func() { d.SetState(StateDeepSleep) })
	s.RunUntil(sim.Time(50) * sim.Microsecond)
	if d.Current() != TxBurstCurrent {
		t.Fatal("state change mid-burst dropped the TX current")
	}
	s.Run()
	if d.Current() != StateCurrent(StateDeepSleep) {
		t.Fatalf("post-burst current %v, want deep sleep", d.Current())
	}
}

func TestPlaySegments(t *testing.T) {
	s := sim.New()
	d := New(s)
	done := false
	d.PlaySegments(BootWiFi(), func() { done = true })
	s.Run()
	if !done {
		t.Fatal("done callback never ran")
	}
	if s.Now() != sim.FromDuration(BootDuration(BootWiFi())) {
		t.Fatalf("boot took %v, want %v", s.Now(), BootDuration(BootWiFi()))
	}
	// After the profile the device returns to its state current.
	if d.Current() != StateCurrent(StateDeepSleep) {
		t.Fatalf("post-profile current %v", d.Current())
	}
	if len(d.Marks()) == 0 || d.Marks()[0].Label != "MC/WiFi init" {
		t.Fatalf("marks = %+v", d.Marks())
	}
}

// TestPlaySegmentsZeroAlloc pins a replayed boot profile, waveform
// bookkeeping included, at zero allocations once warm: the playback
// advances a cursor through a step bound once in New, so no segment builds
// a closure, and the waveform is kept as a few running sums. The mark log
// is pre-grown, since its amortized growth is the recording's cost, not the
// playback's.
func TestPlaySegmentsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the scheduler's wheel-level sync.Pool drops random Puts under the race detector")
	}
	s := sim.New()
	d := New(s)
	boot := BootWiLE()
	done := func() {}
	play := func() {
		d.PlaySegments(boot, done)
		s.Run()
	}
	play()
	const runs = 100
	d.marks = slices.Grow(d.marks, (runs+1)*len(boot))
	if allocs := testing.AllocsPerRun(runs, play); allocs != 0 {
		t.Fatalf("playing the Wi-LE boot profile costs %.1f allocs, want 0", allocs)
	}
}

// TestPlaySegmentsOnePlaybackPerDevice: a second playback may start from
// the first one's done callback, but not while the first is running.
func TestPlaySegmentsOnePlaybackPerDevice(t *testing.T) {
	s := sim.New()
	d := New(s)
	chained := false
	d.PlaySegments(BootWiLE(), func() {
		d.PlaySegments(BootWiLE(), func() { chained = true })
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("overlapping PlaySegments did not panic")
			}
		}()
		d.PlaySegments(BootWiFi(), nil)
	}()
	s.Run()
	if !chained {
		t.Fatal("playback started from done never finished")
	}
	if want := sim.FromDuration(2 * BootDuration(BootWiLE())); s.Now() != want {
		t.Fatalf("chained boots took %v, want %v", s.Now(), want)
	}
}

func TestBootProfilesMatchFigure3Durations(t *testing.T) {
	// Figure 3a: MCU/WiFi init runs 0.2 s → 0.85 s ⇒ 650 ms.
	if got := BootDuration(BootWiFi()); got != 650*time.Millisecond {
		t.Errorf("WiFi boot = %v, want 650ms", got)
	}
	// Figure 3b: Wi-LE init is visibly shorter (§5.2 "this step is
	// shorter when compared with the WiFi case").
	if BootDuration(BootWiLE()) >= BootDuration(BootWiFi()) {
		t.Error("Wi-LE boot not shorter than WiFi boot")
	}
}

func TestMarkPhase(t *testing.T) {
	s := sim.New()
	d := New(s)
	s.After(time.Second, func() { d.MarkPhase("Tx") })
	s.Run()
	marks := d.Marks()
	if len(marks) != 1 || marks[0].Label != "Tx" || marks[0].At != sim.Second {
		t.Fatalf("marks = %+v", marks)
	}
}

func TestStateStringsTotal(t *testing.T) {
	for _, s := range []State{StateDeepSleep, StateLightSleep, StateWiFiPSIdle,
		StateCPUActive, StateNetworkWait, StateRadioListen} {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
}

func TestUnknownStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown state did not panic")
		}
	}()
	StateCurrent(State(99))
}

// refStep is one point of the reference waveform log: the current that
// flows from at onward.
type refStep struct {
	at      sim.Time
	current units.Amps
}

// refTxCharge is Table 1's TX-window scan of a step log: the charge of
// every step at TX current, summed in step order.
func refTxCharge(log []refStep, now sim.Time) units.Coulombs {
	var c units.Coulombs
	for i, s := range log {
		end := now
		if i+1 < len(log) {
			end = log[i+1].at
		}
		if s.current == TxBurstCurrent {
			c += units.Charge(s.current, end.Sub(s.at))
		}
	}
	return c
}

// refWakeEnd is the duty-cycle readers' scan: the end of the last step
// above the deep-sleep floor, ignoring steps before start.
func refWakeEnd(log []refStep, start, now sim.Time) sim.Time {
	var wakeEnd sim.Time
	for i, s := range log {
		if s.at < start {
			continue
		}
		end := now
		if i+1 < len(log) {
			end = log[i+1].at
		}
		if s.current > StateCurrent(StateDeepSleep) {
			wakeEnd = end
		}
	}
	return wakeEnd
}

// randomProfile builds a short boot-like profile whose segments may be
// empty, sit at TX current or drop to the deep-sleep floor.
func randomProfile(rng *sim.Rand) []Segment {
	levels := []units.Amps{TxBurstCurrent, StateCurrent(StateDeepSleep),
		units.MilliAmps(40), units.MilliAmps(62), StateCurrent(StateRadioListen)}
	segs := make([]Segment, 1+rng.Intn(5))
	for i := range segs {
		segs[i] = Segment{D: time.Duration(rng.Intn(3000)) * time.Microsecond, Current: levels[rng.Intn(len(levels))]}
	}
	return segs
}

// TestWaveformAccessorsMatchStepLog drives random state changes, TX
// bursts (often overlapping a state change or a playback) and profile
// playbacks, rebuilds the step log by watching Current after every event
// (each event here changes the current at most once), and checks TxCharge and AwakeUntil against the log scans bit for bit
// after every event: mid-wake, asleep, and with a start cut-off taken
// while the device sleeps.
func TestWaveformAccessorsMatchStepLog(t *testing.T) {
	floor := StateCurrent(StateDeepSleep)
	var midWake, cutChecks int
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		s := sim.New()
		d := New(s)
		actions := 0
		var act func()
		act = func() {
			switch rng.Intn(5) {
			case 0:
				d.SetState(State(rng.Intn(int(StateRadioListen) + 1)))
			case 1:
				d.SetState(StateDeepSleep)
			case 2:
				if !d.playing {
					d.PlaySegments(randomProfile(rng), nil)
				}
			default:
				d.RadioTx(time.Duration(rng.Intn(400)) * time.Microsecond)
			}
			if actions++; actions < 300 {
				delay := time.Duration(rng.Intn(2000)) * time.Microsecond
				if rng.Intn(4) == 0 {
					delay = 0
				}
				s.DoAfter(delay, act)
			}
		}
		s.DoAfter(time.Millisecond, act)

		log := []refStep{{at: s.Now(), current: d.Current()}}
		start, woke := sim.Time(-1), false
		for s.Step() {
			now := s.Now()
			if a := d.Current(); a != log[len(log)-1].current {
				log = append(log, refStep{at: now, current: a})
				woke = woke || start >= 0 && a > floor
			}
			if got, want := d.TxCharge(), refTxCharge(log, now); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("seed %d at %v: TxCharge = %v, log scan %v", seed, now, got, want)
			}
			got := d.AwakeUntil()
			if want := refWakeEnd(log, 0, now); got != want {
				t.Fatalf("seed %d at %v: AwakeUntil = %v, log scan %v", seed, now, got, want)
			}
			if d.Current() > floor {
				midWake++
				if got != now {
					t.Fatalf("seed %d at %v: AwakeUntil mid-wake = %v", seed, now, got)
				}
			}
			// A cut-off taken while asleep: once a wake has raised the
			// current after it, the cut-off scan agrees with AwakeUntil;
			// before that, the last fall predates the cut-off.
			if d.Current() == floor && rng.Intn(20) == 0 {
				start, woke = now, false
			}
			switch {
			case woke:
				cutChecks++
				if want := refWakeEnd(log, start, now); got != want {
					t.Fatalf("seed %d at %v: AwakeUntil = %v, scan from %v gives %v", seed, now, got, start, want)
				}
			case start >= 0 && got > start:
				t.Fatalf("seed %d at %v: AwakeUntil = %v after cut-off %v with no wake since", seed, now, got, start)
			}
		}
	}
	if midWake == 0 || cutChecks == 0 {
		t.Fatalf("mid-wake checks %d, cut-off checks %d: the drive missed a case", midWake, cutChecks)
	}
}
