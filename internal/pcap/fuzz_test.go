package pcap

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPcapReader feeds arbitrary bytes to the reader: the header parse and
// every record read must fail cleanly, never panic, and whatever reads
// back must survive a write and a second read unchanged.
func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	w.WritePacket(Packet{Time: 1500 * time.Millisecond, Data: []byte{0x80, 0, 1, 2}})
	w.WritePacket(Packet{Time: 2 * time.Second, Data: AppendRadiotap(RadiotapMeta{RateKbps: 72000, ChannelMHz: 2437}, []byte{0x80, 0})})
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:24])
	f.Add(buf.Bytes()[:30])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var pkts []Packet
		for {
			p, err := r.ReadPacket()
			if err != nil {
				break
			}
			if len(p.Data) > DefaultSnapLen {
				t.Fatalf("read a %d-byte packet past the snaplen", len(p.Data))
			}
			pkts = append(pkts, p)
		}
		var out bytes.Buffer
		w := NewWriter(&out, r.LinkType())
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				t.Fatalf("a packet that read does not write: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(&out)
		if err != nil {
			t.Fatalf("rewritten capture: %v", err)
		}
		again, err := back.ReadAll()
		if err != nil || len(again) != len(pkts) {
			t.Fatalf("rewritten capture read %d packets (%v), want %d", len(again), err, len(pkts))
		}
		for i := range pkts {
			if again[i].Time != pkts[i].Time || !bytes.Equal(again[i].Data, pkts[i].Data) {
				t.Fatalf("packet %d: %+v rewrote as %+v", i, pkts[i], again[i])
			}
		}
	})
}

// FuzzStripRadiotap feeds arbitrary bytes to the radiotap parser. It must
// never panic, and a header it accepts must round-trip: re-wrapping the
// inner frame with the parsed metadata and stripping it again gives back
// the same frame and the same metadata on the fields AppendRadiotap
// writes.
func FuzzStripRadiotap(f *testing.F) {
	f.Add(AppendRadiotap(RadiotapMeta{RateKbps: 72000, ChannelMHz: 2437}, []byte{0x80, 0, 1, 2}))
	f.Add(AppendRadiotap(RadiotapMeta{}, []byte{0xd4, 0}))
	f.Add([]byte{0, 0, 20, 0, 0x07, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 144, 0, 0, 0x80, 0})
	f.Add([]byte{0, 0, 12, 0, 0, 0, 0, 0x80, 0x0c, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, meta, err := StripRadiotap(data)
		if err != nil {
			return
		}
		inner, got, err := StripRadiotap(AppendRadiotap(meta, frame))
		if err != nil {
			t.Fatalf("re-wrapped header rejected: %v", err)
		}
		if !bytes.Equal(inner, frame) {
			t.Fatalf("inner frame %x came back as %x", frame, inner)
		}
		if got != meta {
			t.Fatalf("metadata %+v came back as %+v", meta, got)
		}
	})
}
