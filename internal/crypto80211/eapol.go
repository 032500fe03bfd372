package crypto80211

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// EAPOL-Key frames (IEEE 802.1X-2010 §11 + IEEE 802.11-2016 §12.7.2).
// These ride inside 802.11 data frames with the EAPOL ethertype (0x888E)
// behind an LLC/SNAP header; this file codes only the EAPOL PDU itself.

// EtherTypeEAPOL is the EAPOL ethertype.
const EtherTypeEAPOL = 0x888e

// KeyInfo is the EAPOL-Key information bitfield.
type KeyInfo uint16

// KeyInfo bits (descriptor version occupies the low 3 bits).
const (
	KeyInfoTypePairwise KeyInfo = 1 << 3
	KeyInfoInstall      KeyInfo = 1 << 6
	KeyInfoAck          KeyInfo = 1 << 7
	KeyInfoMIC          KeyInfo = 1 << 8
	KeyInfoSecure       KeyInfo = 1 << 9
	KeyInfoEncrypted    KeyInfo = 1 << 12
)

// descVersionHMACSHA1AES is descriptor version 2: HMAC-SHA1-128 MIC with
// AES key wrap, the version WPA2-CCMP uses.
const descVersionHMACSHA1AES = 2

// EAPOLKey is a decoded EAPOL-Key frame.
type EAPOLKey struct {
	Info          KeyInfo
	KeyLength     uint16
	ReplayCounter uint64
	Nonce         [NonceLen]byte
	// MIC is the HMAC-SHA1-128 over the whole EAPOL frame with this field
	// zeroed.
	MIC [16]byte
	// KeyData carries the wrapped GTK (msg 3) or the RSN element (msg 2).
	KeyData []byte
}

const (
	eapolVersion   = 2 // 802.1X-2004
	eapolTypeKey   = 3
	descriptorRSN  = 2
	eapolHeaderLen = 4
	keyFixedLen    = 1 + 2 + 2 + 8 + NonceLen + 16 + 8 + 16 + 2 // descriptor..keydatalen
	// maxKeyData is the most key data a PDU can carry: the uint16 EAPOL
	// body length covers the fixed key fields as well.
	maxKeyData = 0xffff - keyFixedLen
)

// Append serializes k as a full EAPOL PDU. Key data longer than the body
// length field can describe (65448 bytes) is rejected, leaving dst as it was.
func (k *EAPOLKey) Append(dst []byte) ([]byte, error) {
	if len(k.KeyData) > maxKeyData {
		return dst, fmt.Errorf("crypto80211: %d bytes of EAPOL key data exceed the %d-byte limit", len(k.KeyData), maxKeyData)
	}
	bodyLen := keyFixedLen + len(k.KeyData)
	dst = append(dst, eapolVersion, eapolTypeKey)
	dst = binary.BigEndian.AppendUint16(dst, uint16(bodyLen))
	dst = append(dst, descriptorRSN)
	dst = binary.BigEndian.AppendUint16(dst, uint16(k.Info)|descVersionHMACSHA1AES)
	dst = binary.BigEndian.AppendUint16(dst, k.KeyLength)
	dst = binary.BigEndian.AppendUint64(dst, k.ReplayCounter)
	dst = append(dst, k.Nonce[:]...)
	dst = append(dst, make([]byte, 16)...) // key IV (unused with AES wrap)
	dst = append(dst, make([]byte, 8)...)  // key RSC
	dst = append(dst, k.MIC[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(k.KeyData)))
	return append(dst, k.KeyData...), nil
}

// micOffset is where the MIC lives inside the serialized PDU.
const micOffset = eapolHeaderLen + 1 + 2 + 2 + 8 + NonceLen + 16 + 8

// ParseEAPOLKey decodes an EAPOL-Key PDU. The EAPOL body-length field must
// fit the buffer and equal the fixed key fields plus the key data; bytes
// after the body (link-layer padding) are ignored.
func ParseEAPOLKey(b []byte) (*EAPOLKey, error) {
	if len(b) < eapolHeaderLen+keyFixedLen {
		return nil, fmt.Errorf("crypto80211: EAPOL-Key too short: %d bytes", len(b))
	}
	if b[1] != eapolTypeKey {
		return nil, fmt.Errorf("crypto80211: not an EAPOL-Key frame (type %d)", b[1])
	}
	if b[4] != descriptorRSN {
		return nil, fmt.Errorf("crypto80211: unknown key descriptor %d", b[4])
	}
	k := &EAPOLKey{}
	k.Info = KeyInfo(binary.BigEndian.Uint16(b[5:])) &^ 0x7 // strip version
	k.KeyLength = binary.BigEndian.Uint16(b[7:])
	k.ReplayCounter = binary.BigEndian.Uint64(b[9:])
	copy(k.Nonce[:], b[17:17+NonceLen])
	copy(k.MIC[:], b[micOffset:micOffset+16])
	bodyLen := int(binary.BigEndian.Uint16(b[2:]))
	if bodyLen > len(b)-eapolHeaderLen {
		return nil, fmt.Errorf("crypto80211: EAPOL body length %d exceeds the %d bytes present", bodyLen, len(b)-eapolHeaderLen)
	}
	n := int(binary.BigEndian.Uint16(b[micOffset+16:]))
	if bodyLen != keyFixedLen+n {
		return nil, fmt.Errorf("crypto80211: EAPOL body length %d, want %d for %d bytes of key data", bodyLen, keyFixedLen+n, n)
	}
	k.KeyData = b[micOffset+18 : micOffset+18+n]
	return k, nil
}

// Sign computes and stores the HMAC-SHA1-128 MIC over the serialized PDU.
// It fails only when Append does.
func (k *EAPOLKey) Sign(kck [16]byte) ([]byte, error) {
	k.MIC = [16]byte{}
	raw, err := k.Append(nil)
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha1.New, kck[:])
	mac.Write(raw)
	copy(k.MIC[:], mac.Sum(nil))
	copy(raw[micOffset:], k.MIC[:])
	return raw, nil
}

// VerifyMIC checks the MIC of a serialized PDU against kck.
func VerifyMIC(raw []byte, kck [16]byte) bool {
	if len(raw) < micOffset+16 {
		return false
	}
	var got [16]byte
	copy(got[:], raw[micOffset:])
	zeroed := append([]byte(nil), raw...)
	for i := range zeroed[micOffset : micOffset+16] {
		zeroed[micOffset+i] = 0
	}
	mac := hmac.New(sha1.New, kck[:])
	mac.Write(zeroed)
	want := mac.Sum(nil)[:16]
	return hmac.Equal(got[:], want)
}
