package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"wile/internal/dot11"
)

func FuzzParseFragment(f *testing.F) {
	m := &Message{DeviceID: 0x1001, Seq: 7, Readings: []Reading{Temperature(17), Battery(3000)}}
	frags, _ := m.Encode(nil)
	for _, fr := range frags {
		f.Add(fr)
	}
	key, _ := NewKey([]byte("0123456789abcdef"))
	sealed, _ := m.Encode(key)
	for _, fr := range sealed {
		f.Add(fr)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0, 0, 0, 1, 0, 1, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h FragmentHeader
		if err := parseFragment(data, &h); err != nil {
			return
		}
		// A parseable single-fragment message must decode without
		// panicking (errors are fine — bodies are arbitrary).
		if h.Total == 1 {
			decodeFragments([][]byte{data}, nil)
		}
	})
}

func FuzzReadingsRoundTrip(f *testing.F) {
	body, _, _ := (&Message{Readings: []Reading{Temperature(21.5), Humidity(40), Counter(9)}}).appendBody(nil, nil)
	f.Add(body)
	f.Add([]byte{1, 2, 0x08, 0x6d})
	f.Add([]byte{255, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		readings, err := parseReadings(nil, data)
		if err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse to the same values.
		var out []byte
		for _, r := range readings {
			var err error
			out, err = appendReading(out, r)
			if err != nil {
				t.Fatalf("parsed reading does not encode: %v", err)
			}
		}
		back, err := parseReadings(nil, out)
		if err != nil {
			t.Fatalf("re-encoded readings do not parse: %v", err)
		}
		if len(back) != len(readings) {
			t.Fatalf("reading count changed: %d → %d", len(readings), len(back))
		}
		for i := range back {
			if back[i].Type != readings[i].Type || back[i].Value != readings[i].Value ||
				!bytes.Equal(back[i].Raw, readings[i].Raw) {
				t.Fatalf("reading %d changed: %+v → %+v", i, readings[i], back[i])
			}
		}
	})
}

// fuzzBeacon turns fuzz input into a beacon. Each element is a selector
// byte, a length byte and that many payload bytes (cut short at the end of
// data); the selector modulo 5 picks how the payload travels: 0 and 1 as a
// Wi-LE fragment, 2 behind a foreign OUI, 3 as a vendor element whose
// info is the payload itself (short or partial OUIs included), 4 as an
// SSID element.
func fuzzBeacon(data []byte) *dot11.Beacon {
	foreign := []byte{0x00, 0x50, 0xf2}
	b := &dot11.Beacon{}
	for len(data) >= 2 {
		sel, n := data[0], min(int(data[1]), len(data)-2)
		payload := data[2 : 2+n]
		data = data[2+n:]
		e := dot11.Element{ID: dot11.ElementVendor}
		switch sel % 5 {
		case 0, 1:
			e.Info = append(OUI[:len(OUI):len(OUI)], payload...)
		case 2:
			e.Info = append(foreign[:3:3], payload...)
		case 3:
			e.Info = payload
		case 4:
			e.ID = dot11.ElementSSID
			e.Info = payload
		}
		b.Elements = append(b.Elements, e)
	}
	return b
}

// fuzzInput encodes payloads as Wi-LE fragment elements for fuzzBeacon.
func fuzzInput(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, 0, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzDecodeBeacon checks the scanner's slot decoder against the
// reference decoder in decode_oracle_test.go on arbitrary vendor-element
// sets: both must return the same message or an error of the same class.
// One decoder serves every input, so state left over from an earlier
// beacon would show as a disagreement.
func FuzzDecodeBeacon(f *testing.F) {
	key, _ := NewKey([]byte("0123456789abcdef"))
	raw := make([]byte, 500)
	for i := range raw {
		raw[i] = byte(i * 13)
	}
	big := &Message{DeviceID: 0x2002, Seq: 9, RxWindow: 30 * time.Millisecond,
		Readings: []Reading{RawReading(raw[:250]), RawReading(raw[250:]), Temperature(-3)}}
	sealed, _ := big.Encode(key)
	f.Add(true, fuzzInput(sealed[2], sealed[0], sealed[1]))
	small := &Message{DeviceID: 0x1001, Seq: 7, Readings: []Reading{Temperature(17), Battery(3000)}}
	plain, _ := small.Encode(nil)
	f.Add(false, fuzzInput(plain...))
	f.Add(false, append([]byte{2, 4, 1, 2, 3, 4, 4, 0}, fuzzInput(plain...)...))
	mismatch := [][]byte{append([]byte(nil), sealed[0]...), append([]byte(nil), sealed[1]...)}
	mismatch[0][8], mismatch[1][8] = 0<<4|2, 1<<4|3
	f.Add(true, fuzzInput(mismatch...))
	f.Add(false, []byte{3, 2, 0x52, 0x49})

	var dec decoder
	f.Fuzz(func(t *testing.T, keyed bool, data []byte) {
		b := fuzzBeacon(data)
		var keyFor func(uint32) *Key
		if keyed {
			keyFor = func(uint32) *Key { return key }
		}
		want, wantErr := oracleDecodeBeacon(b, keyFor)
		got, err := dec.decode(b, keyFor)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("decoder: %v (%s), reference: %v (%s)", err, errClass(err), wantErr, errClass(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoder: %+v, reference: %+v", got, want)
		}
		if again, err := DecodeBeacon(b, keyFor); errClass(err) != errClass(wantErr) || !reflect.DeepEqual(again, want) {
			t.Fatalf("DecodeBeacon: %+v, %v; reference: %+v, %v", again, err, want, wantErr)
		}
	})
}
