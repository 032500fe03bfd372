package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"wile/internal/dot11"
)

// oracleDecodeBeacon is the reference the scanner's slot decoder is
// checked against: every Wi-LE payload collected with Elements.Vendors,
// parsed into its own FragmentHeader, sorted by index and reassembled
// from the sorted list. It differs from the decoder's first version only
// in rejecting fragment sets whose Total fields disagree.
func oracleDecodeBeacon(b *dot11.Beacon, keyFor func(deviceID uint32) *Key) (*Message, error) {
	payloads := b.Elements.Vendors(OUI)
	if len(payloads) == 0 {
		return nil, ErrNotWiLE
	}
	frags := make([]*FragmentHeader, 0, len(payloads))
	for _, p := range payloads {
		h := new(FragmentHeader)
		if err := parseFragment(p, h); err != nil {
			return nil, err
		}
		frags = append(frags, h)
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].Index < frags[j].Index })
	var key *Key
	if keyFor != nil {
		key = keyFor(frags[0].DeviceID)
	}
	return oracleReassemble(frags, key)
}

// oracleReassemble rebuilds a Message from the complete ordered fragment
// set of one (DeviceID, Seq).
func oracleReassemble(frags []*FragmentHeader, key *Key) (*Message, error) {
	if len(frags) == 0 {
		return nil, errors.New("core: no fragments")
	}
	first := frags[0]
	if len(frags) != first.Total {
		return nil, fmt.Errorf("core: have %d fragments, need %d", len(frags), first.Total)
	}
	var body []byte
	for i, f := range frags {
		if f.Index != i || f.Total != first.Total || f.DeviceID != first.DeviceID ||
			f.Seq != first.Seq || f.Flags != first.Flags {
			return nil, fmt.Errorf("core: inconsistent fragment %d", i)
		}
		body = append(body, f.Body...)
	}
	m := &Message{
		DeviceID: first.DeviceID,
		Seq:      first.Seq,
		Downlink: first.Downlink,
	}
	if first.Encrypted {
		if key == nil {
			return nil, ErrNoKey
		}
		plain, err := key.Open(first.DeviceID, first.Seq, first.Flags, body)
		if err != nil {
			return nil, err
		}
		body = plain
	}
	if first.Flags&flagRxWindow != 0 {
		if len(body) < 1 {
			return nil, errors.New("core: rx-window flag without window byte")
		}
		m.RxWindow = time.Duration(body[0]) * rxWindowUnit
		body = body[1:]
	}
	readings, err := parseReadings(nil, body)
	if err != nil {
		return nil, err
	}
	m.Readings = readings
	return m, nil
}

// errClass names the outcome class a scanner acts on: each class maps to
// its own counters and provenance outcome.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotWiLE):
		return "not-wile"
	case errors.Is(err, ErrNoKey):
		return "no-key"
	case errors.Is(err, ErrAuth):
		return "auth"
	}
	return "decode-error"
}
