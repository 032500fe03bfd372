package core

import (
	"fmt"
	"time"

	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// SensorConfig parameterizes a Wi-LE transmitter.
type SensorConfig struct {
	// DeviceID is the unique identifier embedded in every message and in
	// the beacon's (locally administered) BSSID.
	DeviceID uint32
	// Position places the device on the medium.
	Position medium.Position
	// Period is the reporting interval (the paper's example: "periodically
	// wakes up (e.g., every 10 minutes) to send its temperature reading").
	Period time.Duration
	// Rate is the injection PHY rate. The paper's §5.4 measurement uses
	// 72 Mb/s (MCS7 short GI) at 0 dBm; that is the default.
	Rate phy.Rate
	// TxPower is the transmit power (default 0 dBm, matching §5.4).
	TxPower phy.DBm
	// Channel is advertised in the DS parameter element.
	Channel int
	// Key, when non-nil, encrypts and authenticates every message (§6).
	Key *Key
	// JitterPPM models the wake-timer crystal tolerance. The paper §6
	// argues co-periodic transmitters "automatically differ away from each
	// other due to the jitter of their clocks"; 40 ppm is a typical IoT
	// crystal and the default. Negative means a perfect (jitter-free)
	// clock, for studies that need the pathological case.
	JitterPPM float64
	// RxWindow, when nonzero, announces a post-beacon receive window in
	// every message (§6 two-way extension) and keeps the radio on for it.
	RxWindow time.Duration
	// SkipBoot omits the deep-sleep boot profile on each wake. Power
	// studies leave it false; protocol-only tests may set it.
	SkipBoot bool
	// Seed seeds the per-device randomness (jitter, backoff).
	Seed uint64
}

func (c SensorConfig) withDefaults() SensorConfig {
	if c.Rate.KbPerSec == 0 {
		c.Rate = phy.RateHTMCS7SGI
	}
	if c.Channel == 0 {
		c.Channel = 6
	}
	if c.JitterPPM == 0 {
		c.JitterPPM = 40
	}
	if c.Seed == 0 {
		c.Seed = uint64(c.DeviceID)*0x9e3779b9 + 1
	}
	return c
}

// Sensor is one Wi-LE IoT device.
type Sensor struct {
	Cfg SensorConfig
	// Dev is the device power model.
	Dev *esp32.Device
	// Port is the MAC entity used for injection.
	Port *mac.Port
	// Sample supplies the readings for each transmission. Defaults to a
	// single monotonic counter.
	Sample func() []Reading
	// OnDownlink receives §6 two-way responses that arrive inside an
	// announced receive window.
	OnDownlink func(*Message)
	// Stats accumulates transmitter-side counters.
	Stats SensorStats

	sched   *sim.Scheduler
	rng     *sim.Rand
	seq     uint16
	running bool
	// pendingSeq tracks the in-flight sequence number for downlink match.
	windowOpen bool

	// wakes is the free list of wake records. wakeFn and cycleDoneFn are
	// the Run loop's callbacks, bound once in NewSensor.
	wakes       []*wake
	wakeFn      func()
	cycleDoneFn func(ok bool)

	// rec/track carry the optional trace recorder (TraceTo).
	rec   *obs.Recorder
	track obs.TrackID
}

// SensorStats counts transmitter events.
type SensorStats struct {
	Messages  int
	Fragments int
	Downlinks int
}

// NewSensor builds a sleeping sensor attached to the medium.
func NewSensor(sched *sim.Scheduler, med *medium.Medium, cfg SensorConfig) *Sensor {
	cfg = cfg.withDefaults()
	s := &Sensor{
		Cfg:   cfg,
		Dev:   esp32.New(sched),
		sched: sched,
		rng:   sim.NewRand(cfg.Seed),
	}
	s.wakeFn = s.wakeUp
	s.cycleDoneFn = func(bool) { s.scheduleNext() }
	s.Sample = func() []Reading {
		return []Reading{Counter(uint32(s.Stats.Messages))}
	}
	s.Port = mac.New(sched, med, fmt.Sprintf("wile:%08x", cfg.DeviceID), cfg.Position,
		s.BSSID(), cfg.Rate, cfg.TxPower, phy.SensitivityWiFiMCS7, sim.NewRand(cfg.Seed^0xbeef))
	s.Port.Radio = s.Dev
	s.Port.AutoACK = false // a Wi-LE device never ACKs anything
	s.Port.Handler = s.handleFrame
	return s
}

// BSSID reports the device's beacon BSSID, derived from the device ID.
func (s *Sensor) BSSID() dot11.MAC { return dot11.LocalMAC(s.Cfg.DeviceID) }

// TraceTo attaches the sensor and its device/MAC to a trace recorder,
// registering one track per layer: power states, MAC activity, and the
// sensor's own injection instants. Passing a nil recorder detaches.
func (s *Sensor) TraceTo(r *obs.Recorder) {
	s.rec = r
	if r == nil {
		s.Dev.TraceTo(nil, 0)
		s.Port.TraceTo(nil, 0)
		return
	}
	name := fmt.Sprintf("wile:%08x", s.Cfg.DeviceID)
	s.Dev.TraceTo(r, r.Track(name+" power"))
	s.Port.TraceTo(r, r.Track(name+" mac"))
	s.track = r.Track(name)
}

// Observe registers views of the sensor's MAC and protocol counters in the
// registry: the port's mac.* counters plus wile.tx_messages,
// wile.tx_fragments and wile.rx_downlinks. Every sensor wired to one
// registry adds into the same counters, counts made before wiring are
// included, and wiring the same registry again changes nothing.
func (s *Sensor) Observe(reg *obs.Registry) {
	s.Port.Observe(reg)
	reg.CounterView("wile.tx_messages", &s.Stats.Messages)
	reg.CounterView("wile.tx_fragments", &s.Stats.Fragments)
	reg.CounterView("wile.rx_downlinks", &s.Stats.Downlinks)
}

// BuildBeacon constructs the injected frame for the given message: hidden
// SSID (§4.1), DS parameter, basic rates, and the message fragments as
// vendor-specific elements.
func BuildBeacon(bssid dot11.MAC, channel int, m *Message, key *Key) (*dot11.Beacon, error) {
	bb := new(beaconBuild)
	if err := bb.build(bssid, channel, m, key); err != nil {
		return nil, err
	}
	return &bb.beacon, nil
}

// wileRates is the supported-rates set every injected beacon advertises.
var wileRates = dot11.DefaultRates().Info

// beaconBuild is an injected beacon together with every byte its elements
// alias. build fills it in place, so a sensor's wake record rebuilds its
// beacon without allocating once the buffers have grown to the message.
type beaconBuild struct {
	beacon dot11.Beacon
	// body holds the message body; payload holds every vendor element's
	// info (OUI + fragment) back to back.
	body, payload []byte
	rates         [8]byte
	ds            [1]byte
}

// build fills bb.beacon with m's beacon.
func (bb *beaconBuild) build(bssid dot11.MAC, channel int, m *Message, key *Key) error {
	body, flags, err := m.appendBody(bb.body[:0], key)
	bb.body = body
	if err != nil {
		return err
	}
	total := fragmentCount(len(body))
	// The vendor elements alias payload, so it is sized before the first
	// append and never moves while they are built.
	if need := total*(len(OUI)+headerLen) + len(body); cap(bb.payload) < need {
		bb.payload = make([]byte, 0, need)
	}
	bb.ds[0] = byte(channel)
	els := append(bb.beacon.Elements[:0],
		dot11.Element{ID: dot11.ElementSSID, Info: bb.ds[:0:0]}, // hidden: keeps phone AP lists clean
		dot11.Element{ID: dot11.ElementSupportedRates, Info: bb.rates[:copy(bb.rates[:], wileRates)]},
		dot11.Element{ID: dot11.ElementDSParam, Info: bb.ds[:]},
	)
	payload := bb.payload[:0]
	for i := 0; i < total; i++ {
		start := len(payload)
		payload = append(payload, OUI[:]...)
		payload = m.appendFragment(payload, flags, i, total, body)
		els = append(els, dot11.Element{ID: dot11.ElementVendor, Info: payload[start:len(payload):len(payload)]})
	}
	bb.payload = payload
	// Beacon interval field: we are not a real AP, but scanners may use
	// the field to predict the next transmission; encode the period in TU
	// saturating at the field width.
	bb.beacon = *dot11.NewBeacon(bssid, 100, 0 /* neither ESS nor IBSS */, els)
	return nil
}

// wake is one TransmitOnce cycle's state: the message, the completion
// callback, and the beacon with its build buffers. A sensor recycles its
// records through a free list, and each record's callbacks are bound once
// when it is made, so a wake schedules no closure. Overlapping cycles each
// hold their own record.
type wake struct {
	s    *Sensor
	msg  Message
	done func(ok bool)
	// ok holds the MAC outcome while the receive window stays open.
	ok bool
	bb beaconBuild

	injectFn, closeWindowFn func()
	sentFn                  func(ok bool)
}

// newWake takes a record from the free list, or makes one.
func (s *Sensor) newWake() *wake {
	if n := len(s.wakes); n > 0 {
		w := s.wakes[n-1]
		s.wakes[n-1] = nil
		s.wakes = s.wakes[:n-1]
		return w
	}
	w := &wake{s: s}
	w.injectFn, w.sentFn, w.closeWindowFn = w.inject, w.sent, w.closeWindow
	return w
}

// TransmitOnce performs one full wake cycle: boot (unless SkipBoot),
// inject the beacon carrying readings, optionally hold the receive window
// open, then deep-sleep. done (optional) reports MAC-level completion.
func (s *Sensor) TransmitOnce(readings []Reading, done func(ok bool)) {
	w := s.newWake()
	w.msg.Readings, w.done = readings, done
	s.Dev.SetState(esp32.StateCPUActive)
	if s.Cfg.SkipBoot {
		w.inject()
		return
	}
	s.Dev.PlaySegments(wileBoot, w.injectFn)
}

// inject builds the beacon and hands it to the MAC.
func (w *wake) inject() {
	s := w.s
	w.msg.DeviceID, w.msg.Seq, w.msg.RxWindow = s.Cfg.DeviceID, s.seq, s.Cfg.RxWindow
	s.seq++
	if err := w.bb.build(s.BSSID(), s.Cfg.Channel, &w.msg, s.Cfg.Key); err != nil {
		// Only possible with oversized payloads: surface loudly.
		panic(fmt.Sprintf("core: building beacon: %v", err))
	}
	s.Stats.Messages++
	s.Stats.Fragments += fragmentCount(len(w.bb.body))
	if s.rec != nil {
		s.rec.Instant(s.track, s.sched.Now(), "inject-beacon")
	}
	s.Port.SetRadioOn(true)
	s.Dev.SetState(esp32.StateRadioListen)
	if err := s.Port.Send(&w.bb.beacon, w.sentFn); err != nil {
		panic(fmt.Sprintf("core: sending beacon: %v", err))
	}
}

// sent runs when the MAC is done with the beacon.
func (w *wake) sent(ok bool) {
	if rx := w.s.Cfg.RxWindow; rx > 0 {
		// §6: hold the radio on for the announced window so a base
		// station can inject a response.
		w.s.windowOpen = true
		w.ok = ok
		w.s.sched.DoAfter(rx, w.closeWindowFn)
		return
	}
	w.end(ok)
}

// closeWindow ends the receive window.
func (w *wake) closeWindow() {
	w.s.windowOpen = false
	w.end(w.ok)
}

// end puts the sensor to sleep and the record back on the free list, then
// reports the outcome.
func (w *wake) end(ok bool) {
	s := w.s
	s.sleep()
	done := w.done
	w.msg, w.done = Message{}, nil
	s.wakes = append(s.wakes, w)
	if done != nil {
		done(ok)
	}
}

// wileBoot is the Wi-LE wake profile, built once and replayed on every
// wake; PlaySegments only reads it.
var wileBoot = esp32.BootWiLE()

// sleep powers everything down.
func (s *Sensor) sleep() {
	s.Port.SetRadioOn(false)
	s.Dev.MarkPhase("Sleep")
	s.Dev.SetState(esp32.StateDeepSleep)
}

// handleFrame watches for downlink responses during open windows.
func (s *Sensor) handleFrame(f dot11.Frame, rx medium.Reception) {
	if !s.windowOpen || s.OnDownlink == nil {
		return
	}
	beacon, ok := f.(*dot11.Beacon)
	if !ok {
		return
	}
	msg, err := DecodeBeacon(beacon, func(uint32) *Key { return s.Cfg.Key })
	if err != nil || !msg.Downlink || msg.DeviceID != s.Cfg.DeviceID {
		return
	}
	s.Stats.Downlinks++
	s.OnDownlink(msg)
}

// Run starts the periodic reporting loop. Each cycle wakes the device,
// samples, transmits, and schedules the next wake with crystal jitter.
func (s *Sensor) Run() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleNext()
}

// Stop halts the loop after the current cycle.
func (s *Sensor) Stop() { s.running = false }

func (s *Sensor) scheduleNext() {
	if !s.running {
		return
	}
	interval := time.Duration(float64(s.Cfg.Period) * s.rng.Jitter(s.Cfg.JitterPPM))
	s.sched.DoAfter(interval, s.wakeFn)
}

// wakeUp starts one reporting cycle of the Run loop.
func (s *Sensor) wakeUp() {
	if !s.running {
		return
	}
	s.TransmitOnce(s.Sample(), s.cycleDoneFn)
}

// Seq reports the next sequence number (for tests).
func (s *Sensor) Seq() uint16 { return s.seq }
