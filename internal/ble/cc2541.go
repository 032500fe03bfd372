package ble

import (
	"time"

	"wile/internal/sim"
	"wile/internal/units"
)

// CC2541 power model.
//
// The paper does not use the ESP32's own BLE radio ("their Bluetooth
// implementation is inefficient in terms of power consumption") but the
// TI CC2541, quoting the manufacturer's measurement report [15]
// (swra347a, "Measuring Bluetooth Low Energy Power Consumption"). That
// report decomposes one connection event into the phase sequence modeled
// here; the phase durations and currents below follow the report's
// waveform, trimmed so the integral lands on the paper's Table 1 value of
// 71 µJ per packet at 3 V.

// CC2541Voltage is the coin-cell supply voltage of the TI reference
// measurement.
const CC2541Voltage = units.Volts(3.0)

// CC2541SleepCurrent is the between-events sleep current with the
// 32.768 kHz sleep oscillator running (Table 1: 1.1 µA idle).
const CC2541SleepCurrent = units.Amps(1.1e-6)

// Phase is one segment of a connection event.
type Phase struct {
	Name    string
	D       time.Duration
	Current units.Amps
}

// ConnectionEventPhases returns the swra347a phase decomposition of one
// slave connection event (wake → pre-processing → radio prep → RX master
// packet → turnaround → TX our data packet → post-processing).
func ConnectionEventPhases() []Phase {
	// Constant conversions keep this function inlinable, so the slice can
	// stay on the caller's stack (the per-packet hot path builds it 3×).
	return []Phase{
		{Name: "wake-up", D: 400 * time.Microsecond, Current: units.Amps(6.0e-3)},
		{Name: "pre-processing", D: 340 * time.Microsecond, Current: units.Amps(7.4e-3)},
		{Name: "pre-rx", D: 352 * time.Microsecond, Current: units.Amps(11.0e-3)},
		{Name: "rx", D: 190 * time.Microsecond, Current: units.Amps(17.5e-3)},
		{Name: "rx-tx-transition", D: 105 * time.Microsecond, Current: units.Amps(7.4e-3)},
		{Name: "tx", D: 115 * time.Microsecond, Current: units.Amps(18.2e-3)},
		{Name: "post-processing", D: 1190 * time.Microsecond, Current: units.Amps(7.4e-3)},
	}
}

// ConnectionEventDuration sums the phase durations.
func ConnectionEventDuration() time.Duration {
	var d time.Duration
	for _, p := range ConnectionEventPhases() {
		d += p.D
	}
	return d
}

// ConnectionEventCharge integrates one event's charge.
func ConnectionEventCharge() units.Coulombs {
	var c units.Coulombs
	for _, p := range ConnectionEventPhases() {
		c += units.Charge(p.Current, p.D)
	}
	return c
}

// ConnectionEventEnergy integrates one event's energy — the BLE "energy
// per packet" of Table 1.
func ConnectionEventEnergy() units.Joules {
	return ConnectionEventCharge().Energy(CC2541Voltage)
}

// Device is a simulated CC2541 slave: sleeps at CC2541SleepCurrent and
// plays a connection event per transmission, exactly like the esp32
// counterpart (piecewise-constant current, exact charge integral).
type Device struct {
	sched *sim.Scheduler

	lastT  sim.Time
	lastA  units.Amps
	charge units.Coulombs
	events int
}

// NewDevice builds a sleeping CC2541.
func NewDevice(sched *sim.Scheduler) *Device {
	return &Device{sched: sched, lastT: sched.Now(), lastA: CC2541SleepCurrent}
}

func (d *Device) touch() {
	now := d.sched.Now()
	if now > d.lastT {
		d.charge += units.Charge(d.lastA, now.Sub(d.lastT))
		d.lastT = now
	}
}

func (d *Device) setCurrent(a units.Amps) {
	d.touch()
	d.lastA = a
}

// Current reports the instantaneous draw (meter.Probe).
func (d *Device) Current() units.Amps { return d.lastA }

// Charge reports the exact charge drawn since construction.
func (d *Device) Charge() units.Coulombs {
	d.touch()
	return d.charge
}

// Energy reports the exact energy drawn since construction.
func (d *Device) Energy() units.Joules { return d.Charge().Energy(CC2541Voltage) }

// Events reports how many connection events have started.
func (d *Device) Events() int { return d.events }

// PlayConnectionEvent runs one slave connection event, then returns to
// sleep and calls done.
func (d *Device) PlayConnectionEvent(done func()) {
	d.events++
	phases := ConnectionEventPhases()
	var run func(i int)
	run = func(i int) {
		if i == len(phases) {
			d.setCurrent(CC2541SleepCurrent)
			if done != nil {
				done()
			}
			return
		}
		d.setCurrent(phases[i].Current)
		d.sched.DoAfter(phases[i].D, func() { run(i + 1) })
	}
	run(0)
}

// RunPeriodic schedules a connection event every interval, with the first
// at t=interval, until the scheduler is stopped or the caller stops
// running it.
func (d *Device) RunPeriodic(interval time.Duration) {
	var tick func()
	tick = func() {
		d.PlayConnectionEvent(func() {
			d.sched.DoAfter(interval-ConnectionEventDuration(), tick)
		})
	}
	d.sched.DoAfter(interval, tick)
}
