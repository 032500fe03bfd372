package dot11

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz targets: decoders must never panic on arbitrary bytes, and every
// successfully decoded frame must re-serialize to something that decodes
// to the same kind. Seeds cover each frame family; `go test` runs the
// seeds, `go test -fuzz` explores.

func fuzzSeeds(f *testing.F) {
	add := func(fr Frame) {
		raw, err := Marshal(fr)
		if err == nil {
			f.Add(raw)
		}
	}
	ve, _ := VendorElement([3]byte{0x52, 0x49, 0x4c}, []byte("payload"))
	add(NewBeacon(MustParseMAC("02:57:00:00:00:01"), 100, CapESS,
		Elements{SSIDElement(""), DefaultRates(), DSParamElement(6), ve}))
	add(NewACK(MustParseMAC("02:57:00:00:00:01")))
	add(NewDataToAP(MustParseMAC("aa:bb:cc:00:00:01"), MustParseMAC("02:57:00:00:00:01"),
		Broadcast, []byte{0xaa, 0xaa, 0x03, 0, 0, 0, 0x08, 0x00}))
	add(NewNull(MustParseMAC("aa:bb:cc:00:00:01"), MustParseMAC("02:57:00:00:00:01"), true))
	auth := &Auth{Algorithm: AuthOpen, Seq: 1}
	auth.Header.Addr1 = MustParseMAC("aa:bb:cc:00:00:01")
	add(auth)
	add(&PSPoll{AID: 1, BSSID: MustParseMAC("aa:bb:cc:00:00:01")})
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
}

func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		// Round-trip: re-marshal and decode again; the kind must survive.
		raw, err := Marshal(fr)
		if err != nil {
			t.Fatalf("decoded frame does not marshal: %v", err)
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-marshaled frame does not decode: %v", err)
		}
		if back.Kind() != fr.Kind() {
			t.Fatalf("kind changed: %v → %v", fr.Kind(), back.Kind())
		}
		if back.RA() != fr.RA() {
			t.Fatalf("RA changed: %v → %v", fr.RA(), back.RA())
		}
	})
}

func FuzzParseElements(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 'n', 'e', 't', 3, 1, 6})
	f.Add([]byte{221, 4, 0x52, 0x49, 0x4c, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		els, err := ParseElements(data)
		if err != nil {
			return
		}
		// Parsed elements re-serialize to the identical bytes.
		out, err := els.Append(nil)
		if err != nil {
			t.Fatalf("parsed elements do not serialize: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("element round trip changed bytes:\n in  %x\n out %x", data, out)
		}
		// Typed accessors must not panic on arbitrary element content.
		els.SSID()
		els.DSChannel()
		els.Vendor([3]byte{0x52, 0x49, 0x4c})
		if info, ok := els.Find(ElementTIM); ok {
			ParseTIM(info)
		}
		if info, ok := els.Find(ElementRSN); ok {
			ParseRSN(info)
		}
		if info, ok := els.Find(ElementHTCapabilities); ok {
			ParseHTCapabilities(info)
		}
	})
}

// FuzzParseTIM: the TIM parser reads every beacon a power-saving station
// hears. It must never panic, and re-encoding a parse must parse back to
// the same value once AIDs outside 1–2007 are dropped, since TIMElement
// skips those by design.
func FuzzParseTIM(f *testing.F) {
	for _, tim := range []TIM{
		{DTIMPeriod: 1},
		{DTIMCount: 2, DTIMPeriod: 3, GroupTraffic: true, Buffered: []uint16{1}},
		{DTIMPeriod: 1, Buffered: []uint16{17, 18, 300, 2007}},
	} {
		f.Add(TIMElement(tim).Info)
	}
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{0, 1, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 3+251))
	f.Add(bytes.Repeat([]byte{0x01}, 3+8200)) // AIDs would wrap past 65535
	f.Fuzz(func(t *testing.T, info []byte) {
		tim, err := ParseTIM(info)
		if err != nil {
			return
		}
		want := tim
		want.Buffered = nil
		for _, aid := range tim.Buffered {
			if aid >= 1 && aid <= 2007 {
				want.Buffered = append(want.Buffered, aid)
			}
		}
		back, err := ParseTIM(TIMElement(tim).Info)
		if err != nil {
			t.Fatalf("re-encoded TIM does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("TIM round trip changed the value:\n got %+v\nwant %+v", back, want)
		}
	})
}

// FuzzParseRSN: the RSN parser reads the security element of every beacon,
// probe response and association request. It must never panic, and
// re-encoding a parse must parse back to the same value.
func FuzzParseRSN(f *testing.F) {
	def := RSNElement(DefaultRSN()).Info
	f.Add(def)
	f.Add(def[:len(def)-2]) // no capabilities field
	f.Add(def[:9])
	f.Add(RSNElement(RSN{Version: 1, GroupCipher: CipherTKIP,
		PairwiseCiphers: []uint32{CipherCCMP, CipherTKIP}, Capabilities: 0x000c}).Info)
	f.Add([]byte{1, 0, 0, 0x0f, 0xac, 4, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, info []byte) {
		rsn, err := ParseRSN(info)
		if err != nil {
			return
		}
		back, err := ParseRSN(RSNElement(rsn).Info)
		if err != nil {
			t.Fatalf("re-encoded RSN does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, rsn) {
			t.Fatalf("RSN round trip changed the value:\n got %+v\nwant %+v", back, rsn)
		}
	})
}

func FuzzParseHTCapabilities(f *testing.F) {
	f.Add(HTCapabilitiesElement(SingleStreamHTCapabilities()).Info)
	f.Add(HTCapabilitiesElement(HTCapabilities{GreenfieldSupport: true}).Info)
	f.Add(make([]byte, 25))
	f.Add(bytes.Repeat([]byte{0xff}, 30))
	f.Fuzz(func(t *testing.T, info []byte) {
		c, err := ParseHTCapabilities(info)
		if err != nil {
			return
		}
		back, err := ParseHTCapabilities(HTCapabilitiesElement(c).Info)
		if err != nil {
			t.Fatalf("re-encoded HT capabilities do not parse: %v", err)
		}
		if back != c {
			t.Fatalf("round trip changed HT capabilities: %+v → %+v", c, back)
		}
	})
}

func FuzzParseHTOperation(f *testing.F) {
	o := HTOperation{PrimaryChannel: 6}
	o.BasicMCSSet[0] = 0xff
	f.Add(HTOperationElement(o).Info)
	f.Add(make([]byte, 21))
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, info []byte) {
		op, err := ParseHTOperation(info)
		if err != nil {
			return
		}
		back, err := ParseHTOperation(HTOperationElement(op).Info)
		if err != nil {
			t.Fatalf("re-encoded HT operation does not parse: %v", err)
		}
		if back != op {
			t.Fatalf("round trip changed HT operation: %+v → %+v", op, back)
		}
	})
}
