package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"wile/internal/dot11"
)

func testKey(t *testing.T) *Key {
	t.Helper()
	k, err := NewKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// encodeDecode round-trips a message through fragments.
func encodeDecode(t *testing.T, m *Message, key *Key) *Message {
	t.Helper()
	frags, err := m.Encode(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if err := parseFragment(f, new(FragmentHeader)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := decodeFragments(frags, key)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// fragmentBeacon carries fragment payloads in a beacon's Wi-LE vendor
// elements, in the given order.
func fragmentBeacon(frags [][]byte) *dot11.Beacon {
	els := make(dot11.Elements, 0, len(frags))
	for _, f := range frags {
		els = append(els, dot11.Element{ID: dot11.ElementVendor, Info: append(OUI[:len(OUI):len(OUI)], f...)})
	}
	return &dot11.Beacon{Elements: els}
}

// decodeFragments decodes a fragment set the way a scanner holding key
// would.
func decodeFragments(frags [][]byte, key *Key) (*Message, error) {
	return DecodeBeacon(fragmentBeacon(frags), func(uint32) *Key { return key })
}

func TestMessageRoundTripPlain(t *testing.T) {
	m := &Message{
		DeviceID: 0xdeadbeef,
		Seq:      42,
		Readings: []Reading{Temperature(21.57), Humidity(48.5), Battery(2987), Counter(17)},
	}
	got := encodeDecode(t, m, nil)
	if got.DeviceID != m.DeviceID || got.Seq != 42 || got.Downlink {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Readings) != 4 {
		t.Fatalf("readings: %+v", got.Readings)
	}
	if got.Readings[0].Celsius() != 21.57 {
		t.Errorf("temperature = %v", got.Readings[0].Celsius())
	}
	if got.Readings[1].Percent() != 48.5 {
		t.Errorf("humidity = %v", got.Readings[1].Percent())
	}
	if got.Readings[2].Value != 2987 {
		t.Errorf("battery = %v", got.Readings[2].Value)
	}
	if got.Readings[3].Value != 17 {
		t.Errorf("counter = %v", got.Readings[3].Value)
	}
}

func TestMessageSingleFragmentFitsOneElement(t *testing.T) {
	m := &Message{DeviceID: 1, Seq: 1, Readings: []Reading{Temperature(17)}}
	frags, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("small message took %d fragments", len(frags))
	}
	// A temperature beacon's vendor payload: 9-byte header + 4-byte TLV.
	if len(frags[0]) != headerLen+4 {
		t.Fatalf("fragment is %d bytes", len(frags[0]))
	}
}

func TestMessageFragmentation(t *testing.T) {
	// A payload bigger than one vendor element must fragment and
	// reassemble exactly.
	raw := make([]byte, 3*FragmentCapacity/2)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	m := &Message{DeviceID: 9, Seq: 3, Readings: []Reading{RawReading(raw[:200]), RawReading(raw[200:])}}
	frags, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("large payload took %d fragments", len(frags))
	}
	got := encodeDecode(t, m, nil)
	if len(got.Readings) != 2 {
		t.Fatalf("readings: %d", len(got.Readings))
	}
	joined := append(append([]byte(nil), got.Readings[0].Raw...), got.Readings[1].Raw...)
	if !bytes.Equal(joined, raw) {
		t.Fatal("fragmented payload corrupted")
	}
}

func TestMessageOversizedRejected(t *testing.T) {
	var readings []Reading
	for i := 0; i < 16; i++ {
		readings = append(readings, RawReading(make([]byte, 255)))
	}
	m := &Message{DeviceID: 1, Readings: readings}
	if _, err := m.Encode(nil); err == nil {
		t.Fatal("oversized message encoded")
	}
}

func TestRxWindowRoundTrip(t *testing.T) {
	m := &Message{DeviceID: 5, Seq: 9, RxWindow: 30 * time.Millisecond,
		Readings: []Reading{Temperature(18)}}
	got := encodeDecode(t, m, nil)
	if got.RxWindow != 30*time.Millisecond {
		t.Fatalf("rx window = %v", got.RxWindow)
	}
	// Sub-unit windows round up to one unit.
	m2 := &Message{DeviceID: 5, Seq: 10, RxWindow: 3 * time.Millisecond}
	if got := encodeDecode(t, m2, nil); got.RxWindow != rxWindowUnit {
		t.Fatalf("tiny window = %v, want %v", got.RxWindow, rxWindowUnit)
	}
	// Oversized windows rejected.
	m3 := &Message{DeviceID: 5, RxWindow: 10 * time.Second}
	if _, err := m3.Encode(nil); err == nil {
		t.Fatal("10 s window encoded")
	}
}

func TestDownlinkFlagRoundTrip(t *testing.T) {
	m := &Message{DeviceID: 7, Seq: 1, Downlink: true, Readings: []Reading{Counter(1)}}
	if got := encodeDecode(t, m, nil); !got.Downlink {
		t.Fatal("downlink flag lost")
	}
}

func TestNegativeTemperature(t *testing.T) {
	m := &Message{DeviceID: 1, Readings: []Reading{Temperature(-40.25)}}
	got := encodeDecode(t, m, nil)
	if got.Readings[0].Celsius() != -40.25 {
		t.Fatalf("negative temperature = %v", got.Readings[0].Celsius())
	}
}

func TestUnknownReadingTypePreserved(t *testing.T) {
	// Forward compatibility: an unknown TLV type decodes as raw bytes.
	body := []byte{99, 3, 0xaa, 0xbb, 0xcc}
	readings, err := parseReadings(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(readings) != 1 || readings[0].Type != 99 || !bytes.Equal(readings[0].Raw, []byte{0xaa, 0xbb, 0xcc}) {
		t.Fatalf("readings = %+v", readings)
	}
}

func TestParseFragmentErrors(t *testing.T) {
	m := &Message{DeviceID: 1, Seq: 1, Readings: []Reading{Counter(1)}}
	frags, _ := m.Encode(nil)
	good := frags[0]
	if err := parseFragment(good[:5], new(FragmentHeader)); err == nil {
		t.Error("short fragment parsed")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 9 // wrong version
	if err := parseFragment(bad, new(FragmentHeader)); err == nil {
		t.Error("wrong version parsed")
	}
	bad2 := append([]byte(nil), good...)
	bad2[8] = 0x10 // index 1 of total 0
	if err := parseFragment(bad2, new(FragmentHeader)); err == nil {
		t.Error("invalid frag counts parsed")
	}
}

func TestReassembleErrors(t *testing.T) {
	raw := make([]byte, 600)
	m := &Message{DeviceID: 1, Seq: 1, Readings: []Reading{RawReading(raw[:250]), RawReading(raw[250:500]), RawReading(raw[500:])}}
	frags, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("need a 3-fragment message, got %d", len(frags))
	}
	pair, err := (&Message{DeviceID: 2, Seq: 2, Readings: []Reading{RawReading(raw[:250])}}).Encode(nil)
	if err != nil || len(pair) != 2 {
		t.Fatalf("need a 2-fragment message, got %d (%v)", len(pair), err)
	}
	if _, err := decodeFragments(pair, nil); err != nil {
		t.Fatalf("intact 2-fragment message: %v", err)
	}
	// with returns a copy of frag with byte at set to v.
	with := func(frag []byte, at int, v byte) []byte {
		f := append([]byte(nil), frag...)
		f[at] = v
		return f
	}
	for _, tc := range []struct {
		name  string
		frags [][]byte
	}{
		{"incomplete set", frags[:1]},
		{"empty set", nil},
		{"mixed device IDs", [][]byte{frags[0], with(frags[1], 5, frags[1][5]+1), frags[2]}},
		{"mixed sequence numbers", [][]byte{frags[0], frags[1], with(frags[2], 7, frags[2][7]+1)}},
		{"mixed flags", [][]byte{frags[0], with(frags[1], 1, flagDownlink), frags[2]}},
		{"duplicate index", [][]byte{frags[0], frags[1], frags[1]}},
		// {idx 0, total 2} and {idx 1, total 3} look complete to a check
		// that reads Total from fragment 0 only.
		{"totals disagree", [][]byte{pair[0], with(pair[1], 8, 1<<4|3)}},
	} {
		if msg, err := decodeFragments(tc.frags, nil); err == nil {
			t.Errorf("%s: decoded %+v", tc.name, msg)
		}
		if msg, err := oracleDecodeBeacon(fragmentBeacon(tc.frags), nil); err == nil {
			t.Errorf("%s: the reference decoded %+v", tc.name, msg)
		}
	}
	// Element order does not matter.
	got, err := decodeFragments([][]byte{frags[2], frags[0], frags[1]}, nil)
	if err != nil || len(got.Readings) != 3 || !bytes.Equal(got.Readings[2].Raw, raw[500:]) {
		t.Fatalf("reordered fragments: %+v, %v", got, err)
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(id uint32, seq uint16, temp int16, batt uint16, rawLen uint16) bool {
		raw := make([]byte, rawLen%256)
		for i := range raw {
			raw[i] = byte(i)
		}
		m := &Message{
			DeviceID: id,
			Seq:      seq,
			Readings: []Reading{
				{Type: ReadingTemperature, Value: int64(temp)},
				{Type: ReadingBatteryMV, Value: int64(batt)},
				RawReading(raw),
			},
		}
		got := encodeDecode(t, m, nil)
		return got.DeviceID == id && got.Seq == seq &&
			got.Readings[0].Value == int64(temp) &&
			got.Readings[1].Value == int64(batt) &&
			bytes.Equal(got.Readings[2].Raw, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- security ---

func TestSealedRoundTrip(t *testing.T) {
	k := testKey(t)
	m := &Message{DeviceID: 77, Seq: 5, Readings: []Reading{Temperature(36.6)}}
	got := encodeDecode(t, m, k)
	if got.Readings[0].Celsius() != 36.6 {
		t.Fatalf("sealed round trip: %+v", got.Readings)
	}
}

func TestSealedCiphertextHidesPlaintext(t *testing.T) {
	k := testKey(t)
	m := &Message{DeviceID: 77, Seq: 5, Readings: []Reading{RawReading([]byte("SECRET-READING"))}}
	plain, _ := m.Encode(nil)
	sealed, _ := m.Encode(k)
	if bytes.Contains(sealed[0], []byte("SECRET-READING")) {
		t.Fatal("plaintext visible in sealed fragment")
	}
	if len(sealed[0]) != len(plain[0])+TagLen {
		t.Fatalf("sealed overhead = %d bytes, want %d", len(sealed[0])-len(plain[0]), TagLen)
	}
}

func TestSealedWrongKeyRejected(t *testing.T) {
	k := testKey(t)
	k2, _ := NewKey([]byte("fedcba9876543210"))
	m := &Message{DeviceID: 1, Seq: 1, Readings: []Reading{Counter(9)}}
	frags, _ := m.Encode(k)
	if _, err := decodeFragments(frags, k2); err == nil {
		t.Fatal("wrong key accepted")
	}
	if _, err := decodeFragments(frags, nil); err != ErrNoKey {
		t.Fatalf("nil key: %v, want ErrNoKey", err)
	}
}

func TestSealedTamperRejected(t *testing.T) {
	k := testKey(t)
	m := &Message{DeviceID: 1, Seq: 1, Readings: []Reading{Counter(9)}}
	frags, _ := m.Encode(k)
	for i := headerLen; i < len(frags[0]); i++ {
		bad := append([]byte(nil), frags[0]...)
		bad[i] ^= 0x01
		if err := parseFragment(bad, new(FragmentHeader)); err != nil {
			continue
		}
		if _, err := decodeFragments([][]byte{bad}, k); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestSealedBindsIdentity(t *testing.T) {
	// A beacon captured from device A must not replay as device B, a
	// different sequence number, or a downlink.
	k := testKey(t)
	ct := k.Seal(1, 1, 0, []byte("reading"))
	if _, err := k.Open(2, 1, 0, ct); err == nil {
		t.Error("replayed under different device ID")
	}
	if _, err := k.Open(1, 2, 0, ct); err == nil {
		t.Error("replayed under different seq")
	}
	if _, err := k.Open(1, 1, flagDownlink, ct); err == nil {
		t.Error("replayed as downlink")
	}
	if got, err := k.Open(1, 1, 0, ct); err != nil || string(got) != "reading" {
		t.Errorf("legitimate open: %q, %v", got, err)
	}
}

func TestNewKeyValidation(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
	k1, _ := NewKey(bytes.Repeat([]byte{1}, KeyLen))
	k2, _ := NewKey(bytes.Repeat([]byte{2}, KeyLen))
	ct := k1.Seal(1, 1, 0, []byte("x"))
	if _, err := k2.Open(1, 1, 0, ct); err == nil {
		t.Fatal("cross-key open succeeded")
	}
}

func TestPropertySealOpenRoundTrip(t *testing.T) {
	k := testKey(t)
	f := func(id uint32, seq uint16, flags byte, body []byte) bool {
		ct := k.Seal(id, seq, flags, body)
		got, err := k.Open(id, seq, flags, ct)
		return err == nil && bytes.Equal(got, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentCapacityArithmetic(t *testing.T) {
	// The paper's beacon-stuffing citation allows ~253 bytes per vendor
	// element; our header spends 9, leaving 243 per fragment and over
	// 3.6 kB per beacon — versus BLE's 31-byte AdvData.
	if FragmentCapacity != 243 {
		t.Fatalf("FragmentCapacity = %d", FragmentCapacity)
	}
	if MaxPayload != 15*243 {
		t.Fatalf("MaxPayload = %d", MaxPayload)
	}
	if FragmentCapacity < 31*7 {
		t.Fatal("one Wi-LE fragment should dwarf a BLE advertisement")
	}
}

func TestReadingValueRanges(t *testing.T) {
	// int16 centidegree bounds: ±327.67 °C.
	for _, c := range []float64{-327.68, 327.67, 0} {
		m := &Message{DeviceID: 1, Readings: []Reading{Temperature(c)}}
		got := encodeDecode(t, m, nil)
		if math.Abs(got.Readings[0].Celsius()-c) > 0.01 {
			t.Errorf("temperature %v decoded as %v", c, got.Readings[0].Celsius())
		}
	}
}
