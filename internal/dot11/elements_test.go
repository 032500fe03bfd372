package dot11

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestElementListRoundTrip(t *testing.T) {
	els := Elements{
		SSIDElement("net"),
		DefaultRates(),
		DSParamElement(11),
		{ID: ElementERP, Info: []byte{0x04}},
	}
	raw, err := els.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseElements(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, els) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, els)
	}
}

func TestElementTooLong(t *testing.T) {
	if _, err := AppendElement(nil, ElementSSID, make([]byte, 256)); err == nil {
		t.Fatal("256-byte element accepted")
	}
	if _, err := VendorElement([3]byte{1, 2, 3}, make([]byte, MaxVendorData+1)); err == nil {
		t.Fatal("oversized vendor payload accepted")
	}
	// The boundary case must succeed.
	if _, err := VendorElement([3]byte{1, 2, 3}, make([]byte, MaxVendorData)); err != nil {
		t.Fatalf("max-size vendor payload rejected: %v", err)
	}
}

func TestParseElementsTruncated(t *testing.T) {
	for _, raw := range [][]byte{
		{0},          // header cut short
		{0, 5, 1, 2}, // claims 5 info bytes, has 2
	} {
		if _, err := ParseElements(raw); !ErrTruncated(err) {
			t.Errorf("ParseElements(%x) = %v, want truncated", raw, err)
		}
	}
	// Empty list is valid.
	if got, err := ParseElements(nil); err != nil || len(got) != 0 {
		t.Errorf("empty list: %v, %v", got, err)
	}
}

func TestVendorsMultiple(t *testing.T) {
	oui := [3]byte{0x57, 0x49, 0x4c}
	other := [3]byte{0x00, 0x50, 0xf2}
	v1, _ := VendorElement(oui, []byte("one"))
	v2, _ := VendorElement(other, []byte("wps"))
	v3, _ := VendorElement(oui, []byte("two"))
	els := Elements{v1, v2, v3}
	got := els.Vendors(oui)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("Vendors = %q", got)
	}
	first, ok := els.Vendor(oui)
	if !ok || string(first) != "one" {
		t.Fatalf("Vendor = %q, %v", first, ok)
	}
	if _, ok := els.Vendor([3]byte{9, 9, 9}); ok {
		t.Fatal("found vendor data for unknown OUI")
	}
}

func TestTIMEmpty(t *testing.T) {
	e := TIMElement(TIM{DTIMCount: 1, DTIMPeriod: 3})
	tim, err := ParseTIM(e.Info)
	if err != nil {
		t.Fatal(err)
	}
	if tim.DTIMCount != 1 || tim.DTIMPeriod != 3 || tim.GroupTraffic || len(tim.Buffered) != 0 {
		t.Fatalf("empty TIM = %+v", tim)
	}
	// Standard minimum: 4-byte info (count, period, control, one bitmap byte).
	if len(e.Info) != 4 {
		t.Fatalf("empty TIM is %d bytes, want 4", len(e.Info))
	}
}

func TestTIMSingleAID(t *testing.T) {
	e := TIMElement(TIM{DTIMPeriod: 1, Buffered: []uint16{7}})
	tim, err := ParseTIM(e.Info)
	if err != nil {
		t.Fatal(err)
	}
	if !tim.BufferedFor(7) || tim.BufferedFor(8) {
		t.Fatalf("TIM = %+v", tim)
	}
}

func TestTIMHighAIDUsesOffset(t *testing.T) {
	// AID 2000 lives in bitmap byte 250; the partial virtual bitmap must
	// not transmit the 249 empty bytes before it.
	e := TIMElement(TIM{DTIMPeriod: 1, Buffered: []uint16{2000}})
	if len(e.Info) > 6 {
		t.Fatalf("partial virtual bitmap not compressed: %d info bytes", len(e.Info))
	}
	tim, err := ParseTIM(e.Info)
	if err != nil {
		t.Fatal(err)
	}
	if !tim.BufferedFor(2000) {
		t.Fatalf("AID 2000 lost: %+v", tim)
	}
}

// TestTIMRejectsOverlongBitmap: a bitmap past 251 octets is malformed, and
// parsing one would wrap AIDs around the uint16 range into duplicates.
func TestTIMRejectsOverlongBitmap(t *testing.T) {
	info := make([]byte, 3+8200)
	info[3] = 0x02      // AID 1
	info[3+8192] = 0x02 // would wrap to AID 1
	if tim, err := ParseTIM(info); err == nil {
		t.Fatalf("over-long TIM accepted: %+v", tim)
	}
	full := make([]byte, 3+251)
	full[3+250] = 0x01 // AID 2000
	if tim, err := ParseTIM(full); err != nil || !tim.BufferedFor(2000) {
		t.Fatalf("251-octet TIM: %+v, %v", tim, err)
	}
}

func TestTIMGroupTrafficBit(t *testing.T) {
	e := TIMElement(TIM{GroupTraffic: true, Buffered: []uint16{1}})
	tim, err := ParseTIM(e.Info)
	if err != nil {
		t.Fatal(err)
	}
	if !tim.GroupTraffic || !tim.BufferedFor(1) {
		t.Fatalf("TIM = %+v", tim)
	}
}

func TestTIMIgnoresInvalidAIDs(t *testing.T) {
	e := TIMElement(TIM{Buffered: []uint16{0, 2008, 5000, 3}})
	tim, err := ParseTIM(e.Info)
	if err != nil {
		t.Fatal(err)
	}
	if len(tim.Buffered) != 1 || tim.Buffered[0] != 3 {
		t.Fatalf("TIM kept invalid AIDs: %+v", tim.Buffered)
	}
}

func TestParseTIMTruncated(t *testing.T) {
	if _, err := ParseTIM([]byte{1, 2, 3}); !ErrTruncated(err) {
		t.Fatal("short TIM accepted")
	}
}

// Property: any valid AID set round-trips through the partial virtual
// bitmap exactly.
func TestPropertyTIMRoundTrip(t *testing.T) {
	f := func(aids []uint16) bool {
		want := map[uint16]bool{}
		var valid []uint16
		for _, a := range aids {
			a %= 2008
			if a == 0 {
				continue
			}
			if !want[a] {
				want[a] = true
				valid = append(valid, a)
			}
		}
		e := TIMElement(TIM{DTIMPeriod: 1, Buffered: valid})
		tim, err := ParseTIM(e.Info)
		if err != nil {
			return false
		}
		if len(tim.Buffered) != len(want) {
			return false
		}
		for _, a := range tim.Buffered {
			if !want[a] {
				return false
			}
		}
		// Parsed list is sorted by construction.
		return sort.SliceIsSorted(tim.Buffered, func(i, j int) bool { return tim.Buffered[i] < tim.Buffered[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRSNRoundTrip(t *testing.T) {
	r := RSN{
		Version:         1,
		GroupCipher:     CipherTKIP,
		PairwiseCiphers: []uint32{CipherCCMP, CipherTKIP},
		AKMs:            []uint32{AKMPSK},
		Capabilities:    0x000c,
	}
	got, err := ParseRSN(RSNElement(r).Info)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("RSN round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestParseRSNTruncated(t *testing.T) {
	full := RSNElement(DefaultRSN()).Info
	for _, n := range []int{0, 4, 7, 9, 13} {
		if n > len(full) {
			continue
		}
		if _, err := ParseRSN(full[:n]); err == nil {
			t.Errorf("ParseRSN of %d-byte prefix succeeded", n)
		}
	}
}

func TestDefaultRSNIsWPA2PSKCCMP(t *testing.T) {
	r := DefaultRSN()
	if r.GroupCipher != CipherCCMP || len(r.PairwiseCiphers) != 1 ||
		r.PairwiseCiphers[0] != CipherCCMP || len(r.AKMs) != 1 || r.AKMs[0] != AKMPSK {
		t.Fatalf("DefaultRSN = %+v", r)
	}
}

func TestVendorElementLayout(t *testing.T) {
	oui := [3]byte{0xaa, 0xbb, 0xcc}
	e, err := VendorElement(oui, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != ElementVendor {
		t.Fatalf("ID = %d", e.ID)
	}
	if !bytes.Equal(e.Info, []byte{0xaa, 0xbb, 0xcc, 1, 2, 3}) {
		t.Fatalf("info = %x", e.Info)
	}
}

func TestFindMissing(t *testing.T) {
	els := Elements{SSIDElement("x")}
	if _, ok := els.Find(ElementTIM); ok {
		t.Fatal("found absent element")
	}
	if _, ok := els.DSChannel(); ok {
		t.Fatal("found absent channel")
	}
}

func TestHTCapabilitiesRoundTrip(t *testing.T) {
	c := SingleStreamHTCapabilities()
	got, err := ParseHTCapabilities(HTCapabilitiesElement(c).Info)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ShortGI20 {
		t.Error("short GI lost")
	}
	for mcs := 0; mcs <= 7; mcs++ {
		if !got.SupportsMCS(mcs) {
			t.Errorf("MCS %d not supported", mcs)
		}
	}
	for _, mcs := range []int{8, 15, 76, 77, -1} {
		if got.SupportsMCS(mcs) {
			t.Errorf("MCS %d spuriously supported", mcs)
		}
	}
	if len(HTCapabilitiesElement(c).Info) != 26 {
		t.Errorf("HT cap element is %d bytes", len(HTCapabilitiesElement(c).Info))
	}
}

func TestHTOperationRoundTrip(t *testing.T) {
	o := HTOperation{PrimaryChannel: 6}
	o.BasicMCSSet[0] = 0xff
	got, err := ParseHTOperation(HTOperationElement(o).Info)
	if err != nil {
		t.Fatal(err)
	}
	if got.PrimaryChannel != 6 || got.BasicMCSSet[0] != 0xff {
		t.Fatalf("round trip: %+v", got)
	}
	if len(HTOperationElement(o).Info) != 22 {
		t.Errorf("HT op element is %d bytes", len(HTOperationElement(o).Info))
	}
}

func TestHTParseTruncated(t *testing.T) {
	if _, err := ParseHTCapabilities(make([]byte, 10)); !ErrTruncated(err) {
		t.Error("short HT caps accepted")
	}
	if _, err := ParseHTOperation(make([]byte, 10)); !ErrTruncated(err) {
		t.Error("short HT op accepted")
	}
}
