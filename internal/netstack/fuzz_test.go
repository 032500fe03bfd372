package netstack

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// The four parsers here read the bytes a station or AP receives, so each
// fuzz target checks that nothing panics and that whatever a parser
// accepts survives Append and parses again with the fields Append carries
// unchanged. `go test` runs the seeds, `go test -fuzz` explores.

// FuzzParseARP: an accepted packet re-encodes to exactly the 28 bytes the
// parser read, since every field of the wire format is either checked or
// carried.
func FuzzParseARP(f *testing.F) {
	req := NewARPRequest([6]byte{2, 0x57, 0, 0, 0, 1}, MustParseIP("192.168.86.20"), MustParseIP("192.168.86.1"))
	rep, err := req.Reply([6]byte{0xaa, 0xbb, 0xcc, 0, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range []*ARP{req, rep} {
		raw := a.Append(nil)
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
		f.Add(append(raw, 0xee))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseARP(data)
		if err != nil {
			return
		}
		raw := a.Append(nil)
		if !bytes.Equal(raw, data[:arpLen]) {
			t.Fatalf("re-encoding differs from the parsed bytes:\n got %x\nwant %x", raw, data[:arpLen])
		}
		back, err := ParseARP(raw)
		if err != nil {
			t.Fatalf("re-parse of Append output failed: %v", err)
		}
		if *back != *a {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", back, a)
		}
	})
}

// FuzzParseIPv4: AppendIPv4 writes a 20-byte header, so IP options drop
// out of the round trip, and it writes TTL 64 for a zero TTL.
func FuzzParseIPv4(f *testing.F) {
	pkt := AppendIPv4(nil, IPv4Header{Protocol: ProtoUDP, ID: 7, TTL: 3,
		Src: MustParseIP("192.168.86.20"), Dst: IPBroadcast}, []byte("temp=17.0"))
	f.Add(pkt)
	f.Add(pkt[:len(pkt)-1])
	f.Add(AppendIPv4(nil, IPv4Header{Protocol: ProtoUDP}, nil))
	// A 24-byte header carrying one 4-byte option, checksum fixed up.
	opt := slices.Concat(pkt[:20], []byte{1, 1, 1, 0}, pkt[20:])
	opt[0] = 0x46
	binary.BigEndian.PutUint16(opt[2:], uint16(len(opt)))
	binary.BigEndian.PutUint16(opt[10:], 0)
	binary.BigEndian.PutUint16(opt[10:], Checksum(opt[:24]))
	f.Add(opt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ParseIPv4(data)
		if err != nil {
			return
		}
		back, backPayload, err := ParseIPv4(AppendIPv4(nil, h, payload))
		if err != nil {
			t.Fatalf("re-parse of AppendIPv4 output failed: %v", err)
		}
		want := h
		if want.TTL == 0 {
			want.TTL = 64
		}
		if back != want || !bytes.Equal(backPayload, payload) {
			t.Fatalf("round trip changed the packet:\n got %+v %x\nwant %+v %x", back, backPayload, want, payload)
		}
	})
}

// FuzzParseUDP: the header's length field bounds the payload, and the
// round trip carries the ports and that payload.
func FuzzParseUDP(f *testing.F) {
	dg := AppendUDP(nil, UDPHeader{SrcPort: DHCPClientPort, DstPort: DHCPServerPort}, []byte("temp=17.0"))
	f.Add(dg)
	f.Add(dg[:len(dg)-1])
	f.Add(append(dg, 0, 0))
	f.Add(AppendUDP(nil, UDPHeader{}, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ParseUDP(data)
		if err != nil {
			return
		}
		back, backPayload, err := ParseUDP(AppendUDP(nil, h, payload))
		if err != nil {
			t.Fatalf("re-parse of AppendUDP output failed: %v", err)
		}
		if back != h || !bytes.Equal(backPayload, payload) {
			t.Fatalf("round trip changed the datagram:\n got %+v %x\nwant %+v %x", back, backPayload, h, payload)
		}
	})
}

// FuzzParseDHCP: Append carries the BOOTP fields the stack reads and the
// options; it rewrites htype, hlen and hops, zeroes sname and file, and
// drops pad options and anything after the end option.
func FuzzParseDHCP(f *testing.F) {
	hw := [6]byte{2, 0x57, 0, 0, 0, 1}
	server := NewDHCPServer(MustParseIP("192.168.86.1"))
	discover := NewDiscover(0xdeadbeef, hw)
	offer := server.Handle(discover)
	for _, d := range []*DHCP{discover, offer, NewRequest(offer)} {
		raw := d.Append(nil)
		f.Add(raw)
		f.Add(raw[:len(raw)-2])
	}
	f.Add(append(discover.Append(nil)[:dhcpFixedLen], 0, 0, OptEnd))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDHCP(data)
		if err != nil {
			return
		}
		back, err := ParseDHCP(d.Append(nil))
		if err != nil {
			t.Fatalf("re-parse of Append output failed: %v", err)
		}
		if back.Op != d.Op || back.XID != d.XID || back.Secs != d.Secs || back.Flags != d.Flags ||
			back.CIAddr != d.CIAddr || back.YIAddr != d.YIAddr || back.SIAddr != d.SIAddr ||
			back.GIAddr != d.GIAddr || back.CHAddr != d.CHAddr {
			t.Fatalf("round trip changed the BOOTP fields:\n got %+v\nwant %+v", back, d)
		}
		if !slices.EqualFunc(back.Options, d.Options, func(a, b DHCPOption) bool {
			return a.Code == b.Code && bytes.Equal(a.Data, b.Data)
		}) {
			t.Fatalf("round trip changed the options:\n got %+v\nwant %+v", back.Options, d.Options)
		}
	})
}
