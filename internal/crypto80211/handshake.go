package crypto80211

import (
	"errors"
	"fmt"
)

// The WPA2-PSK 4-way handshake (IEEE 802.11-2016 §12.7.6), modeled as two
// message-driven state machines. The AP model owns an Authenticator per
// associating station; the station model owns a Supplicant. Each Handle
// call consumes one EAPOL-Key PDU and may produce the next one, so the
// frame exchange — and therefore the §3.1 frame count and the Figure 3a
// current spikes — falls out of driving these machines over the simulated
// medium.

// ErrHandshake wraps protocol violations during the exchange.
var ErrHandshake = errors.New("crypto80211: 4-way handshake failed")

// Authenticator is the AP side of the 4-way handshake.
type Authenticator struct {
	pmk     []byte
	aa, spa [6]byte
	anonce  [NonceLen]byte
	gtk     [GTKLen]byte
	replay  uint64
	ptk     PTK
	state   int // 0: idle, 1: sent M1, 2: sent M3, 3: done
}

// NewAuthenticator prepares the AP side. anonce and gtk come from the AP's
// random source (the simulation passes deterministic values).
func NewAuthenticator(pmk []byte, aa, spa [6]byte, anonce [NonceLen]byte, gtk [GTKLen]byte) *Authenticator {
	return &Authenticator{pmk: pmk, aa: aa, spa: spa, anonce: anonce, gtk: gtk}
}

// Message1 produces M1: the ANonce, unauthenticated (the supplicant cannot
// verify anything yet).
func (a *Authenticator) Message1() []byte {
	a.state = 1
	a.replay++
	m1 := &EAPOLKey{
		Info:          KeyInfoTypePairwise | KeyInfoAck,
		KeyLength:     16,
		ReplayCounter: a.replay,
		Nonce:         a.anonce,
	}
	raw, err := m1.Append(nil)
	if err != nil {
		// M1 carries no key data, so it always fits.
		panic(fmt.Sprintf("crypto80211: building M1: %v", err))
	}
	return raw
}

// Handle consumes a supplicant PDU (M2 or M4) and returns the response to
// transmit, or nil when the handshake needs no reply (after M4).
func (a *Authenticator) Handle(raw []byte) ([]byte, error) {
	k, err := ParseEAPOLKey(raw)
	if err != nil {
		return nil, err
	}
	switch a.state {
	case 1: // expecting M2
		if k.Info&KeyInfoMIC == 0 {
			return nil, fmt.Errorf("%w: M2 missing MIC", ErrHandshake)
		}
		if k.ReplayCounter != a.replay {
			return nil, fmt.Errorf("%w: M2 replay counter %d != %d", ErrHandshake, k.ReplayCounter, a.replay)
		}
		a.ptk = DerivePTK(a.pmk, a.aa, a.spa, a.anonce, k.Nonce)
		if !VerifyMIC(raw, a.ptk.KCK) {
			return nil, fmt.Errorf("%w: M2 MIC invalid (wrong passphrase?)", ErrHandshake)
		}
		// Build M3: deliver the wrapped GTK.
		a.replay++
		wrapped, err := KeyWrap(a.ptk.KEK[:], pad8(a.gtk[:]))
		if err != nil {
			return nil, err
		}
		m3 := &EAPOLKey{
			Info:          KeyInfoTypePairwise | KeyInfoAck | KeyInfoMIC | KeyInfoInstall | KeyInfoSecure | KeyInfoEncrypted,
			KeyLength:     16,
			ReplayCounter: a.replay,
			Nonce:         a.anonce,
			KeyData:       wrapped,
		}
		a.state = 2
		return m3.Sign(a.ptk.KCK)
	case 2: // expecting M4
		if k.ReplayCounter != a.replay {
			return nil, fmt.Errorf("%w: M4 replay counter", ErrHandshake)
		}
		if !VerifyMIC(raw, a.ptk.KCK) {
			return nil, fmt.Errorf("%w: M4 MIC invalid", ErrHandshake)
		}
		a.state = 3
		return nil, nil
	}
	return nil, fmt.Errorf("%w: unexpected message in state %d", ErrHandshake, a.state)
}

// Done reports whether the handshake completed.
func (a *Authenticator) Done() bool { return a.state == 3 }

// PTK returns the established pairwise key; valid once M2 is processed.
func (a *Authenticator) PTK() PTK { return a.ptk }

// Supplicant is the station side of the 4-way handshake.
type Supplicant struct {
	pmk     []byte
	aa, spa [6]byte
	snonce  [NonceLen]byte
	ptk     PTK
	gtk     [GTKLen]byte
	state   int // 0: idle, 1: sent M2, 2: done
}

// NewSupplicant prepares the station side.
func NewSupplicant(pmk []byte, aa, spa [6]byte, snonce [NonceLen]byte) *Supplicant {
	return &Supplicant{pmk: pmk, aa: aa, spa: spa, snonce: snonce}
}

// Handle consumes an authenticator PDU (M1 or M3) and returns the response
// to transmit (M2 or M4).
func (s *Supplicant) Handle(raw []byte) ([]byte, error) {
	k, err := ParseEAPOLKey(raw)
	if err != nil {
		return nil, err
	}
	switch s.state {
	case 0: // expecting M1
		if k.Info&KeyInfoAck == 0 || k.Info&KeyInfoMIC != 0 {
			return nil, fmt.Errorf("%w: not an M1", ErrHandshake)
		}
		s.ptk = DerivePTK(s.pmk, s.aa, s.spa, k.Nonce, s.snonce)
		m2 := &EAPOLKey{
			Info:          KeyInfoTypePairwise | KeyInfoMIC,
			KeyLength:     16,
			ReplayCounter: k.ReplayCounter,
			Nonce:         s.snonce,
		}
		s.state = 1
		return m2.Sign(s.ptk.KCK)
	case 1: // expecting M3
		if k.Info&KeyInfoInstall == 0 {
			return nil, fmt.Errorf("%w: not an M3", ErrHandshake)
		}
		if !VerifyMIC(raw, s.ptk.KCK) {
			return nil, fmt.Errorf("%w: M3 MIC invalid", ErrHandshake)
		}
		keyData, err := KeyUnwrap(s.ptk.KEK[:], k.KeyData)
		if err != nil {
			return nil, fmt.Errorf("%w: GTK unwrap: %v", ErrHandshake, err)
		}
		copy(s.gtk[:], unpad8(keyData))
		m4 := &EAPOLKey{
			Info:          KeyInfoTypePairwise | KeyInfoMIC | KeyInfoSecure,
			KeyLength:     16,
			ReplayCounter: k.ReplayCounter,
		}
		s.state = 2
		return m4.Sign(s.ptk.KCK)
	}
	return nil, fmt.Errorf("%w: unexpected message in state %d", ErrHandshake, s.state)
}

// Done reports whether the handshake completed.
func (s *Supplicant) Done() bool { return s.state == 2 }

// PTK returns the established pairwise key; valid once M1 is processed.
func (s *Supplicant) PTK() PTK { return s.ptk }

// GTK returns the group key delivered in M3; valid once Done.
func (s *Supplicant) GTK() [GTKLen]byte { return s.gtk }
