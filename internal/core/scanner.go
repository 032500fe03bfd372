package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Scanner is the receiving side of Wi-LE: "a simple Android or iOS
// application or other software running on a host can retrieve the
// sensor's data. This application looks for special beacon frames
// transmitted by IoT devices and extracts their data" (§4).
//
// Because the carrier frame is a beacon, the receiver needs no monitor
// mode, no rooting, and no association: the MAC forwards every beacon up.
// In the simulation the scanner's port runs with a monitor callback, which
// is also exactly how the paper's own evaluation receives ("the AP (i.e.
// another WiFi card) is in the monitor mode to receive and verify these
// beacon frames", §5.3).

// Meta describes how a message arrived.
type Meta struct {
	// RSSI is the received signal strength.
	RSSI phy.DBm
	// At is the reception time.
	At sim.Time
	// BSSID is the injected beacon's (device-derived) BSSID.
	BSSID dot11.MAC
}

// DeviceRecord aggregates everything a scanner knows about one device.
type DeviceRecord struct {
	DeviceID uint32
	// Messages counts distinct messages received (after dedup).
	Messages int
	// Duplicates counts re-receptions of already-seen sequence numbers.
	Duplicates int
	// Lost estimates missed messages from sequence-number gaps.
	Lost int
	// LastSeq is the newest sequence number seen.
	LastSeq uint16
	// LastSeen is the time of the newest message.
	LastSeen sim.Time
	// LastRSSI is the newest signal strength.
	LastRSSI phy.DBm
	// Last is the newest message.
	Last *Message
}

// ScannerConfig parameterizes a receiver.
type ScannerConfig struct {
	Name     string
	Position medium.Position
	// Keys maps device IDs to their pre-shared keys; DefaultKey applies
	// to devices not in the map. Unencrypted messages need neither.
	Keys       map[uint32]*Key
	DefaultKey *Key
	// AcceptDownlink includes base-station→device messages (normally only
	// devices care about those).
	AcceptDownlink bool
	Seed           uint64
}

// Scanner receives and decodes Wi-LE messages.
type Scanner struct {
	Cfg  ScannerConfig
	Port *mac.Port
	// OnMessage fires for every new (deduplicated) message.
	OnMessage func(*Message, Meta)
	// Stats accumulates receiver-side counters.
	Stats ScannerStats

	devices map[uint32]*DeviceRecord
	dec     decoder
}

// ScannerStats counts receiver events.
type ScannerStats struct {
	BeaconsSeen    int // beacons carrying our OUI
	OtherBeacons   int // foreign beacons (real APs)
	Messages       int
	Duplicates     int
	DecodeErrors   int
	EncryptedDrops int // encrypted messages with no/ wrong key
}

// NewScanner attaches a receiver to the medium. Phones listen with ~0 dBm
// transmit irrelevance; the receive sensitivity matches the injection MCS.
func NewScanner(sched *sim.Scheduler, med *medium.Medium, cfg ScannerConfig) *Scanner {
	if cfg.Name == "" {
		cfg.Name = "scanner"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca9
	}
	sc := &Scanner{
		Cfg:     cfg,
		devices: make(map[uint32]*DeviceRecord),
	}
	sc.Port = mac.New(sched, med, cfg.Name, cfg.Position,
		dot11.MustParseMAC("02:0a:0b:0c:0d:0e"), phy.RateHTMCS7SGI, 0,
		phy.SensitivityWiFiMCS7, sim.NewRand(cfg.Seed))
	sc.Port.AutoACK = false
	sc.Port.Monitor = sc.handleFrame
	// handleFrame copies everything it keeps (decoded messages and the
	// device records hold no references into the beacon, and the decoder
	// clears its slots), so the scanner can hand frames straight back to
	// the decode pool.
	sc.Port.ReleaseAfterMonitor = true
	// The scanner owns the decoded-frame provenance outcomes: the Wi-LE
	// pipeline, not the 802.11 duplicate cache, decides what counts as
	// filtered (core sequence dedup) or undecodable (bad key / auth).
	sc.Port.ProvDelegate = true
	return sc
}

// TraceTo attaches the scanner's MAC to a trace recorder. Passing a nil
// recorder detaches.
func (sc *Scanner) TraceTo(r *obs.Recorder) {
	if r == nil {
		sc.Port.TraceTo(nil, 0)
		return
	}
	sc.Port.TraceTo(r, r.Track(sc.Cfg.Name+" mac"))
}

// Observe registers views of the scanner's MAC and protocol counters in
// the registry: the port's mac.* counters plus the wile.* receiver counters
// (beacons_seen, other_beacons, rx_messages, rx_duplicates, decode_errors,
// encrypted_drops). As for Sensor.Observe, scanners sharing a registry sum
// and re-wiring changes nothing.
func (sc *Scanner) Observe(reg *obs.Registry) {
	sc.Port.Observe(reg)
	reg.CounterView("wile.beacons_seen", &sc.Stats.BeaconsSeen)
	reg.CounterView("wile.other_beacons", &sc.Stats.OtherBeacons)
	reg.CounterView("wile.rx_messages", &sc.Stats.Messages)
	reg.CounterView("wile.rx_duplicates", &sc.Stats.Duplicates)
	reg.CounterView("wile.decode_errors", &sc.Stats.DecodeErrors)
	reg.CounterView("wile.encrypted_drops", &sc.Stats.EncryptedDrops)
}

// Start powers the receiver on.
func (sc *Scanner) Start() { sc.Port.SetRadioOn(true) }

// Stop powers the receiver off.
func (sc *Scanner) Stop() { sc.Port.SetRadioOn(false) }

// keyFor selects the key for a device.
func (sc *Scanner) keyFor(deviceID uint32) *Key {
	if k, ok := sc.Cfg.Keys[deviceID]; ok {
		return k
	}
	return sc.Cfg.DefaultKey
}

// DecodeBeacon extracts a Wi-LE message from a beacon, or an error if the
// beacon carries none (or it fails authentication). keyFor is consulted
// only for encrypted messages and may be nil for plaintext-only
// deployments.
func DecodeBeacon(b *dot11.Beacon, keyFor func(deviceID uint32) *Key) (*Message, error) {
	var d decoder
	return d.decode(b, keyFor)
}

// decoder reassembles a beacon's Wi-LE message. Fragments land in the
// slot named by their Index, so no fragment list is built or sorted. A
// Scanner owns one and reuses its slots and join buffer; DecodeBeacon
// runs one on the stack.
type decoder struct {
	frags [maxFragments]FragmentHeader
	join  []byte
}

// decoded is a decoded message together with the backing array for one
// reading, so a one-reading message (every message the default Sample and
// the paper experiments send) takes one allocation; a longer one grows a
// slice of its own. The message is always fresh: OnMessage callers and
// DeviceRecord.Last keep it.
type decoded struct {
	msg      Message
	readings [1]Reading
}

// decode extracts b's message. The slots alias b only for the call.
func (d *decoder) decode(b *dot11.Beacon, keyFor func(deviceID uint32) *Key) (*Message, error) {
	m, err := d.reassemble(b.Elements, keyFor)
	d.frags = [maxFragments]FragmentHeader{}
	return m, err
}

// reassemble collects the Wi-LE fragments among els into their slots,
// checks that they form one complete set, then opens and parses the body.
// Every structural check runs before the key is looked up, so a malformed
// set is a decode error whatever the key.
func (d *decoder) reassemble(els dot11.Elements, keyFor func(deviceID uint32) *Key) (*Message, error) {
	var first FragmentHeader
	var seen uint16 // bit i: fragment i is in its slot
	n := 0
	for _, e := range els {
		if e.ID != dot11.ElementVendor || len(e.Info) < len(OUI) || [3]byte(e.Info[:3]) != OUI {
			continue
		}
		var h FragmentHeader
		if err := parseFragment(e.Info[3:], &h); err != nil {
			return nil, err
		}
		if n == 0 {
			first = h
		} else if h.Total != first.Total || h.DeviceID != first.DeviceID || h.Seq != first.Seq || h.Flags != first.Flags {
			return nil, fmt.Errorf("core: inconsistent fragment %d", h.Index)
		}
		if seen&(1<<h.Index) != 0 {
			return nil, fmt.Errorf("core: duplicate fragment %d", h.Index)
		}
		seen |= 1 << h.Index
		d.frags[h.Index] = h
		n++
	}
	if n == 0 {
		return nil, ErrNotWiLE
	}
	if n != first.Total {
		return nil, fmt.Errorf("core: have %d fragments, need %d", n, first.Total)
	}
	body := d.frags[0].Body
	if n > 1 {
		d.join = d.join[:0]
		for _, f := range d.frags[:n] {
			d.join = append(d.join, f.Body...)
		}
		body = d.join
	}
	if first.Encrypted {
		var key *Key
		if keyFor != nil {
			key = keyFor(first.DeviceID)
		}
		if key == nil {
			return nil, ErrNoKey
		}
		plain, err := key.Open(first.DeviceID, first.Seq, first.Flags, body)
		if err != nil {
			return nil, err
		}
		body = plain
	}
	var window time.Duration
	if first.Flags&flagRxWindow != 0 {
		if len(body) < 1 {
			return nil, errors.New("core: rx-window flag without window byte")
		}
		window = time.Duration(body[0]) * rxWindowUnit
		body = body[1:]
	}
	out := &decoded{msg: Message{DeviceID: first.DeviceID, Seq: first.Seq, RxWindow: window, Downlink: first.Downlink}}
	readings, err := parseReadings(out.readings[:0], body)
	if err != nil {
		return nil, err
	}
	if len(readings) > 0 {
		out.msg.Readings = readings
	}
	return &out.msg, nil
}

// ErrNotWiLE marks a beacon without Wi-LE vendor elements.
var ErrNotWiLE = errors.New("core: beacon carries no Wi-LE elements")

// handleFrame processes every decodable frame the radio hears. As the
// port's ProvDelegate owner it resolves every decoded frame to exactly one
// provenance outcome: frames the Wi-LE pipeline rejects for corruption-like
// reasons (bad key, auth failure, malformed fragments) are decode errors,
// core sequence dedup is dedup_filtered, everything else the radio decoded
// — including foreign traffic — counts as delivered.
func (sc *Scanner) handleFrame(f dot11.Frame, rx medium.Reception) {
	beacon, ok := f.(*dot11.Beacon)
	if !ok {
		sc.Port.Resolve(rx, obs.Delivered)
		return
	}
	msg, err := sc.dec.decode(beacon, sc.keyFor)
	switch {
	case errors.Is(err, ErrNotWiLE):
		sc.Stats.OtherBeacons++
		sc.Port.Resolve(rx, obs.Delivered)
		return
	case errors.Is(err, ErrNoKey), errors.Is(err, ErrAuth):
		sc.Stats.BeaconsSeen++
		sc.Stats.EncryptedDrops++
		sc.Port.Resolve(rx, obs.DropDecodeError)
		return
	case err != nil:
		sc.Stats.BeaconsSeen++
		sc.Stats.DecodeErrors++
		sc.Port.Resolve(rx, obs.DropDecodeError)
		return
	}
	sc.Stats.BeaconsSeen++
	if msg.Downlink && !sc.Cfg.AcceptDownlink {
		sc.Port.Resolve(rx, obs.Delivered)
		return
	}
	rec, known := sc.devices[msg.DeviceID]
	if !known {
		rec = &DeviceRecord{DeviceID: msg.DeviceID}
		sc.devices[msg.DeviceID] = rec
	}
	if known && msg.Seq == rec.LastSeq {
		rec.Duplicates++
		sc.Stats.Duplicates++
		sc.Port.Resolve(rx, obs.DropDedupFiltered)
		return
	}
	sc.Port.Resolve(rx, obs.Delivered)
	if known {
		// Sequence gap = missed messages (modulo wraparound).
		gap := int(uint16(msg.Seq - rec.LastSeq))
		if gap > 1 && gap < 0x8000 {
			rec.Lost += gap - 1
		}
	}
	rec.Messages++
	rec.LastSeq = msg.Seq
	rec.LastSeen = rx.End
	rec.LastRSSI = rx.RSSI
	rec.Last = msg
	sc.Stats.Messages++
	if sc.OnMessage != nil {
		sc.OnMessage(msg, Meta{RSSI: rx.RSSI, At: rx.End, BSSID: beacon.BSSID()})
	}
}

// Device reports the record for one device.
func (sc *Scanner) Device(deviceID uint32) (DeviceRecord, bool) {
	rec, ok := sc.devices[deviceID]
	if !ok {
		return DeviceRecord{}, false
	}
	return *rec, true
}

// Devices returns all known device records sorted by ID.
func (sc *Scanner) Devices() []DeviceRecord {
	out := make([]DeviceRecord, 0, len(sc.devices))
	for _, rec := range sc.devices {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// String summarizes the scanner.
func (sc *Scanner) String() string {
	return fmt.Sprintf("scanner %q: %d devices, %d messages, %d dupes",
		sc.Cfg.Name, len(sc.devices), sc.Stats.Messages, sc.Stats.Duplicates)
}
