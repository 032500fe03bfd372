// Package esp32 models the evaluation platform of the paper: an ESP32
// WiFi/BLE system-on-chip powered from a clean 3.3 V rail, observed by a
// series ammeter. The model is a piecewise-constant current waveform driven
// by the protocol simulation: every power-state change, boot segment and
// transmit burst becomes a step in the waveform, and energies are exact
// integrals of that waveform — the same methodology as the paper's
// Keysight 34465A measurements (§5.1).
//
// Current calibration. The plateau values come from the ESP32 datasheet
// and the paper's own text/figures:
//
//   - deep sleep 2.5 µA ("the current draw in deep sleep mode is as low as
//     2.5 µA", §5.1)
//   - light sleep 0.8 mA (§5.1)
//   - automatic light sleep with WiFi association kept: about 5 mA (§5.1);
//     with the paper's aggressive listen-interval-3 setting Table 1 reports
//     4.5 mA, which is what WiFiPSIdle uses
//   - MCU active at 80 MHz: ~30 mA (datasheet, DFS floor ~20 mA)
//   - radio listening: ~100 mA (datasheet RX 95–100 mA)
//   - radio transmitting: ~180 mA average over a burst at low TX power
//     (datasheet TX 120–240 mA depending on power; Figure 3 spikes)
package esp32

import (
	"fmt"
	"time"

	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// Rail voltage: the paper powers the module from a bench supply at 3.3 V
// with the regulator removed.
const Voltage = units.Volts(3.3)

// State is a coarse power state with a fixed current draw.
type State int

// Power states.
const (
	// StateDeepSleep: CPU and RAM off, RTC timer running.
	StateDeepSleep State = iota
	// StateLightSleep: RAM retained, fast wake.
	StateLightSleep
	// StateWiFiPSIdle: associated, automatic light sleep, waking for every
	// third beacon (the WiFi-PS idle mode of Table 1).
	StateWiFiPSIdle
	// StateCPUActive: MCU running at 80 MHz, radio off.
	StateCPUActive
	// StateNetworkWait: DFS + automatic light sleep between network-layer
	// messages — the 20–30 mA plateau of Figure 3a's DHCP/ARP phase.
	StateNetworkWait
	// StateRadioListen: radio on and receiving/carrier-sensing.
	StateRadioListen
)

// StateCurrent reports the current draw of s.
func StateCurrent(s State) units.Amps {
	switch s {
	case StateDeepSleep:
		return units.MicroAmps(2.5)
	case StateLightSleep:
		return units.MilliAmps(0.8)
	case StateWiFiPSIdle:
		return units.MilliAmps(4.5)
	case StateCPUActive:
		return units.MilliAmps(30)
	case StateNetworkWait:
		return units.MilliAmps(20)
	case StateRadioListen:
		return units.MilliAmps(100)
	}
	panic(fmt.Sprintf("esp32: unknown state %d", s))
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateDeepSleep:
		return "deep-sleep"
	case StateLightSleep:
		return "light-sleep"
	case StateWiFiPSIdle:
		return "wifi-ps-idle"
	case StateCPUActive:
		return "cpu-active"
	case StateNetworkWait:
		return "network-wait"
	case StateRadioListen:
		return "radio-listen"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// TxBurstCurrent is the average current during a transmit burst.
const TxBurstCurrent = units.Amps(180e-3)

// TxRampUp is the radio settle/PA ramp time charged at TX current before
// each burst. Together with the PHY airtime this reproduces the measured
// per-transmission radio-on window behind Table 1's 84 µJ Wi-LE figure.
const TxRampUp = 95 * time.Microsecond

// Mark is a labeled instant, used to annotate figure phases
// ("MC/WiFi init", "Probe/Auth./Associate", …).
type Mark struct {
	At    sim.Time
	Label string
}

// Device is one simulated ESP32 module.
type Device struct {
	sched *sim.Scheduler

	state   State
	lastT   sim.Time
	lastA   units.Amps
	txUntil sim.Time

	// stepAt is when the current last changed. charge is the exact
	// integral of the waveform, txCharge the part drawn at TxBurstCurrent
	// in steps that have ended, and asleepAt when the current last fell to
	// the deep-sleep floor.
	stepAt   sim.Time
	charge   units.Coulombs
	txCharge units.Coulombs
	asleepAt sim.Time
	marks    []Mark

	// rec/track carry the optional trace recorder (TraceTo): power states
	// become nested slices, phase marks instants, TX bursts spans.
	rec   *obs.Recorder
	track obs.TrackID

	// segs, seg and segDone are the running PlaySegments playback: the
	// profile, the cursor to its next segment and the completion callback.
	segs    []Segment
	seg     int
	segDone func()
	playing bool
	// stepFn and txEndFn are the playback step and TX-burst end, bound once
	// in New so scheduling them builds no closure.
	stepFn, txEndFn func()
}

// New builds a device in deep sleep at the scheduler's current time.
func New(sched *sim.Scheduler) *Device {
	now := sched.Now()
	d := &Device{sched: sched, state: StateDeepSleep, lastT: now, lastA: sleepFloor, stepAt: now, asleepAt: now}
	d.stepFn, d.txEndFn = d.step, d.txEnd
	return d
}

// touch integrates charge up to now before a waveform change.
func (d *Device) touch() {
	now := d.sched.Now()
	if now > d.lastT {
		d.charge += units.Charge(d.lastA, now.Sub(d.lastT))
		d.lastT = now
	}
}

// sleepFloor is the deep-sleep current: the device is awake while it draws
// more.
var sleepFloor = StateCurrent(StateDeepSleep)

// setCurrent changes the instantaneous current. A change closes the
// running step: a closed TX step adds its charge to txCharge as one term,
// so the sum runs in step order, and a fall to the floor moves asleepAt.
func (d *Device) setCurrent(a units.Amps) {
	d.touch()
	if a == d.lastA {
		return
	}
	now := d.sched.Now()
	if d.lastA == TxBurstCurrent {
		d.txCharge += units.Charge(TxBurstCurrent, now.Sub(d.stepAt))
	}
	if d.lastA > sleepFloor && a <= sleepFloor {
		d.asleepAt = now
	}
	d.lastA, d.stepAt = a, now
}

// effectiveCurrent reports the current the state machine implies now.
func (d *Device) effectiveCurrent() units.Amps {
	if d.sched.Now() < d.txUntil {
		return TxBurstCurrent
	}
	return StateCurrent(d.state)
}

// TraceTo attaches the device to a trace recorder: the current power state
// opens as a slice on the given track, and every later transition closes
// one slice and opens the next. Passing a nil recorder detaches.
func (d *Device) TraceTo(r *obs.Recorder, track obs.TrackID) {
	d.rec = r
	d.track = track
	if r != nil {
		r.Begin(track, d.sched.Now(), d.state.String())
	}
}

// SetState moves the device to s immediately.
func (d *Device) SetState(s State) {
	if d.rec != nil && s != d.state {
		now := d.sched.Now()
		d.rec.End(d.track, now)
		d.rec.Begin(d.track, now, s.String())
	}
	d.state = s
	d.setCurrent(d.effectiveCurrent())
}

// GetState reports the current coarse power state.
func (d *Device) GetState() State { return d.state }

// Current reports the instantaneous current draw — what the series
// multimeter reads at this exact virtual instant.
func (d *Device) Current() units.Amps {
	return d.lastA
}

// RadioTx implements mac.RadioListener: the amplifier turns on for
// TxRampUp+airtime, overriding the state current.
func (d *Device) RadioTx(airtime time.Duration) {
	until := d.sched.Now().Add(TxRampUp + airtime)
	if until > d.txUntil {
		d.txUntil = until
	}
	if d.rec != nil {
		d.rec.Span(d.track, d.sched.Now(), until, "tx-burst")
	}
	d.setCurrent(TxBurstCurrent)
	d.sched.DoAt(until, d.txEndFn)
}

// txEnd restores the state current once the last overlapping burst ends.
func (d *Device) txEnd() {
	if d.sched.Now() >= d.txUntil {
		d.setCurrent(d.effectiveCurrent())
	}
}

// MarkPhase records a labeled instant for figure annotation.
func (d *Device) MarkPhase(label string) {
	d.marks = append(d.marks, Mark{At: d.sched.Now(), Label: label})
	if d.rec != nil {
		d.rec.Instant(d.track, d.sched.Now(), label)
	}
}

// Marks returns the recorded phase annotations.
func (d *Device) Marks() []Mark { return d.marks }

// TxCharge reports the charge drawn at TxBurstCurrent since construction:
// the radio-on transmit window Table 1 counts (§5.4).
func (d *Device) TxCharge() units.Coulombs {
	if d.lastA == TxBurstCurrent {
		return d.txCharge + units.Charge(TxBurstCurrent, d.sched.Now().Sub(d.stepAt))
	}
	return d.txCharge
}

// AwakeUntil reports when the current last fell to the deep-sleep floor,
// or now while it is above the floor: the end of the latest wake.
func (d *Device) AwakeUntil() sim.Time {
	if d.lastA > sleepFloor {
		return d.sched.Now()
	}
	return d.asleepAt
}

// Charge reports the total charge drawn since construction, integrated
// exactly over the waveform.
func (d *Device) Charge() units.Coulombs {
	d.touch()
	return d.charge
}

// Energy reports the total energy drawn since construction.
func (d *Device) Energy() units.Joules { return d.Charge().Energy(Voltage) }

// Segment is one piece of a scripted boot/init profile.
type Segment struct {
	D       time.Duration
	Current units.Amps
	Label   string
}

// PlaySegments runs a scripted current profile (boot sequences, RF
// calibration, …), then restores the device's state current and calls
// done. Labels become phase marks. A device plays one profile at a time:
// starting a playback while one is running panics, though done may start
// the next. segs is read as the playback advances and must not change
// until done runs; a profile built once can be replayed on every wake.
func (d *Device) PlaySegments(segs []Segment, done func()) {
	if d.playing {
		panic("esp32: PlaySegments while a playback is running")
	}
	d.playing = true
	d.segs, d.seg, d.segDone = segs, 0, done
	d.step()
}

// step enters the playback's next segment, or finishes the playback.
func (d *Device) step() {
	if d.seg == len(d.segs) {
		done := d.segDone
		d.segs, d.segDone, d.playing = nil, nil, false
		d.setCurrent(d.effectiveCurrent())
		if done != nil {
			done()
		}
		return
	}
	s := d.segs[d.seg]
	d.seg++
	if s.Label != "" {
		d.MarkPhase(s.Label)
	}
	d.setCurrent(s.Current)
	d.sched.DoAfter(s.D, d.stepFn)
}

// Boot profiles, calibrated against Figure 3. Durations are the paper's
// phase boundaries; currents are the plateau levels visible in the traces.

// BootWiFi is the deep-sleep wake path of the full WiFi client
// (Figure 3a, 0.2 s → 0.85 s): ROM boot, flash image load, RF calibration,
// WiFi stack bring-up in station mode.
func BootWiFi() []Segment {
	segs := []Segment{{D: 30 * time.Millisecond, Current: units.MilliAmps(40), Label: "MC/WiFi init"}}
	segs = append(segs, flashLoad(170*time.Millisecond)...)
	segs = append(segs,
		Segment{D: 120 * time.Millisecond, Current: units.MilliAmps(70)},
		Segment{D: 330 * time.Millisecond, Current: units.MilliAmps(35)},
	)
	return segs
}

// flashLoad models the image-load phase: alternating flash-read bursts and
// decompress/copy stretches. The sub-segments average exactly 50 mA so the
// calibrated phase charge is unchanged; only the waveform texture (visible
// in Figure 3's traces) differs from a flat plateau.
func flashLoad(total time.Duration) []Segment {
	const bursts = 8
	slice := total / (2 * bursts)
	out := make([]Segment, 0, 2*bursts)
	for i := 0; i < bursts; i++ {
		out = append(out,
			Segment{D: slice, Current: units.MilliAmps(62)}, // SPI flash read burst
			Segment{D: slice, Current: units.MilliAmps(38)}, // CPU copy/decompress
		)
	}
	return out
}

// BootWiLE is the deep-sleep wake path of the Wi-LE transmitter
// (Figure 3b): the same ROM/flash phases but no station-mode stack — "the
// chip does not need to prepare to connect to the AP as a client; it can
// simply enable the WiFi radio to inject a packet" (§5.2).
func BootWiLE() []Segment {
	segs := []Segment{{D: 30 * time.Millisecond, Current: units.MilliAmps(40), Label: "MC/WiFi init"}}
	segs = append(segs, flashLoad(170*time.Millisecond)...)
	segs = append(segs,
		Segment{D: 100 * time.Millisecond, Current: units.MilliAmps(70)},
		Segment{D: 50 * time.Millisecond, Current: units.MilliAmps(35)},
	)
	return segs
}

// BootDuration sums a profile's segment durations.
func BootDuration(segs []Segment) time.Duration {
	var total time.Duration
	for _, s := range segs {
		total += s.D
	}
	return total
}
