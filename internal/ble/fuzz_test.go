package ble

import (
	"bytes"
	"testing"
)

// fuzzSeedPDUs are well-formed advertising PDUs for the parser seeds: the
// Wi-LE-comparable beacon shape (flags plus manufacturer data), an empty
// payload and a full 31-byte one.
func fuzzSeedPDUs(f *testing.F) []*AdvPDU {
	ad, err := AppendAD(nil,
		ADStructure{Type: ADFlags, Data: []byte{0x06}},
		ADStructure{Type: ADManufacturerData, Data: []byte{0x0d, 0x00, 17, 0}},
	)
	if err != nil {
		f.Fatal(err)
	}
	return []*AdvPDU{
		{Type: PDUAdvNonconnInd, TxAdd: true, AdvA: Address{1, 2, 3, 4, 5, 6}, Data: ad},
		{Type: PDUAdvInd, AdvA: Address{0xc0}},
		{Type: PDUScanRsp, AdvA: Address{9}, Data: bytes.Repeat([]byte{0x5a}, MaxAdvData)},
	}
}

// equalPDU compares the fields an AdvPDU carries.
func equalPDU(a, b *AdvPDU) bool {
	return a.Type == b.Type && a.TxAdd == b.TxAdd && a.AdvA == b.AdvA && bytes.Equal(a.Data, b.Data)
}

// FuzzParseAdvPDU: the advertising-PDU parser sees over-the-air bytes, so
// it must never panic, and whatever it accepts must survive Marshal and
// parse again unchanged. `go test` runs the seeds, `go test -fuzz`
// explores.
func FuzzParseAdvPDU(f *testing.F) {
	for _, p := range fuzzSeedPDUs(f) {
		raw, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 2+63))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseAdvPDU(data)
		if err != nil {
			return
		}
		raw, err := p.Marshal()
		if err != nil {
			t.Fatalf("Marshal of an accepted PDU failed: %v", err)
		}
		back, err := ParseAdvPDU(raw)
		if err != nil {
			t.Fatalf("re-parse of Marshal output failed: %v", err)
		}
		if !equalPDU(back, p) {
			t.Fatalf("round trip changed the PDU:\n got %+v\nwant %+v", back, p)
		}
	})
}

// FuzzParseOnAir: dewhitening, the CRC check and the PDU parse together
// must never panic on any channel, and an accepted packet must survive
// MarshalOnAir and parse again unchanged on the same channel.
func FuzzParseOnAir(f *testing.F) {
	for _, p := range fuzzSeedPDUs(f) {
		for _, ch := range AdvChannels {
			raw, err := p.MarshalOnAir(ch)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(ch), raw)
			f.Add(uint8(ch), raw[:len(raw)-1])
		}
	}
	f.Add(uint8(37), []byte{})
	f.Add(uint8(0xff), bytes.Repeat([]byte{0xff}, 8))

	f.Fuzz(func(t *testing.T, ch uint8, data []byte) {
		p, err := ParseOnAir(int(ch), data)
		if err != nil {
			return
		}
		raw, err := p.MarshalOnAir(int(ch))
		if err != nil {
			t.Fatalf("MarshalOnAir of an accepted PDU failed: %v", err)
		}
		back, err := ParseOnAir(int(ch), raw)
		if err != nil {
			t.Fatalf("re-parse of MarshalOnAir output failed: %v", err)
		}
		if !equalPDU(back, p) {
			t.Fatalf("round trip changed the PDU:\n got %+v\nwant %+v", back, p)
		}
	})
}

// FuzzParseAD: the AD-structure parser must never panic, and any AdvData
// that fits the 31-byte limit must re-encode through AppendAD to exactly
// the bytes the parser consumed (everything before an early terminator).
func FuzzParseAD(f *testing.F) {
	for _, p := range fuzzSeedPDUs(f) {
		f.Add(p.Data)
	}
	f.Add([]byte{2, ADFlags, 6, 0, 0, 0})
	f.Add([]byte{5, 1, 2})
	f.Add([]byte{1, ADCompleteName})
	f.Add(bytes.Repeat([]byte{0xff}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		structures, err := ParseAD(data)
		if err != nil || len(data) > MaxAdvData {
			return
		}
		raw, err := AppendAD(nil, structures...)
		if err != nil {
			t.Fatalf("AppendAD of parsed structures failed: %v", err)
		}
		if !bytes.Equal(raw, data[:len(raw)]) {
			t.Fatalf("re-encoding differs from the consumed input:\n got %x\nwant %x", raw, data[:len(raw)])
		}
		if rest := data[len(raw):]; len(rest) > 0 && rest[0] != 0 {
			t.Fatalf("parser stopped at %x, not at a terminator", rest)
		}
		back, err := ParseAD(raw)
		if err != nil {
			t.Fatalf("re-parse of AppendAD output failed: %v", err)
		}
		if len(back) != len(structures) {
			t.Fatalf("round trip returned %d structures, want %d", len(back), len(structures))
		}
		for i := range back {
			if back[i].Type != structures[i].Type || !bytes.Equal(back[i].Data, structures[i].Data) {
				t.Fatalf("structure %d changed: got %+v want %+v", i, back[i], structures[i])
			}
		}
	})
}
