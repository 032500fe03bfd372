package crypto80211

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzParseEAPOLKey: the EAPOL-Key parser sees over-the-air bytes, so it
// must never panic, whatever it accepts must carry the body length Append
// writes, and it must survive Append and parse again unchanged. Seeds are the four messages of a real handshake plus
// truncated and hostile inputs; `go test` runs the seeds, `go test -fuzz`
// explores.
func FuzzParseEAPOLKey(f *testing.F) {
	pmk := make([]byte, PSKLen)
	var anonce, snonce [NonceLen]byte
	anonce[0], snonce[0] = 1, 2
	var gtk [GTKLen]byte
	a := NewAuthenticator(pmk, [6]byte{0xaa}, [6]byte{0x02}, anonce, gtk)
	s := NewSupplicant(pmk, [6]byte{0xaa}, [6]byte{0x02}, snonce)
	m1 := a.Message1()
	m2, err := s.Handle(m1)
	if err != nil {
		f.Fatal(err)
	}
	m3, err := a.Handle(m2)
	if err != nil {
		f.Fatal(err)
	}
	m4, err := s.Handle(m3)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range [][]byte{m1, m2, m3, m4} {
		f.Add(m)
		f.Add(m[:len(m)-1])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, eapolHeaderLen+keyFixedLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ParseEAPOLKey(data)
		if err != nil {
			return
		}
		raw, err := k.Append(nil)
		if err != nil {
			t.Fatalf("Append of an accepted key frame failed: %v", err)
		}
		if got, want := binary.BigEndian.Uint16(data[2:]), binary.BigEndian.Uint16(raw[2:]); got != want {
			t.Fatalf("accepted body length %d, Append writes %d", got, want)
		}
		back, err := ParseEAPOLKey(raw)
		if err != nil {
			t.Fatalf("re-parse of Append output failed: %v", err)
		}
		if back.Info != k.Info || back.KeyLength != k.KeyLength ||
			back.ReplayCounter != k.ReplayCounter || back.Nonce != k.Nonce ||
			back.MIC != k.MIC || !bytes.Equal(back.KeyData, k.KeyData) {
			t.Fatalf("round trip changed the key frame:\n got %+v\nwant %+v", back, k)
		}
		if again, err := back.Append(nil); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("Append not stable across a round trip:\n got %x\nwant %x", again, raw)
		}
	})
}

// FuzzCCMPDecapsulate: Decapsulate sees over-the-air data-frame bodies, so
// it must never panic, an input it rejects must leave the replay window
// where it was, and an input it accepts must be refused as a replay the
// second time. Independently, every Encapsulate output must decapsulate
// back to its MSDU. Seeds are real encapsulations plus truncated, tampered
// and header-only bodies.
func FuzzCCMPDecapsulate(f *testing.F) {
	var tk [16]byte
	copy(tk[:], "temporal-key-16b")
	meta := testMeta()
	tx := NewCCMPSession(tk)
	for _, msdu := range [][]byte{nil, []byte("dhcp"), bytes.Repeat([]byte{0xa5}, 300)} {
		body, err := tx.Encapsulate(meta, msdu)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, msdu)
		f.Add(body[:len(body)-1], msdu)
		tampered := append([]byte(nil), body...)
		tampered[CCMPHeaderLen] ^= 1
		f.Add(tampered, msdu)
		noExtIV := append([]byte(nil), body...)
		noExtIV[3] &^= 0x20
		f.Add(noExtIV, msdu)
	}
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, CCMPHeaderLen), []byte{0})

	f.Fuzz(func(t *testing.T, body, msdu []byte) {
		rx := NewCCMPSession(tk)
		plain, err := rx.Decapsulate(meta, body)
		if err == nil {
			if len(plain) != len(body)-CCMPOverhead {
				t.Fatalf("accepted a %d-byte body as a %d-byte MSDU", len(body), len(plain))
			}
			if _, err := rx.Decapsulate(meta, body); !errors.Is(err, ErrReplay) {
				t.Fatalf("second delivery of an accepted body: %v, want ErrReplay", err)
			}
			rx = NewCCMPSession(tk)
		}

		// rx's window is back at zero: the first genuine frame must open.
		sealed, err := NewCCMPSession(tk).Encapsulate(meta, msdu)
		if err != nil {
			t.Fatalf("Encapsulate of a %d-byte MSDU: %v", len(msdu), err)
		}
		got, err := rx.Decapsulate(meta, sealed)
		if err != nil {
			t.Fatalf("Decapsulate of an Encapsulate output: %v", err)
		}
		if !bytes.Equal(got, msdu) {
			t.Fatalf("round trip changed the MSDU:\n got %x\nwant %x", got, msdu)
		}
	})
}
