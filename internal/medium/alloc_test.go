package medium

import (
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/phy"
)

// cluster attaches n radios within a few meters of the origin, every third
// one powered off and the rest listening, and returns the first as the
// beaconing transmitter.
func cluster(m *Medium, n int) *Transceiver {
	var tx *Transceiver
	for i := 0; i < n; i++ {
		t := m.Attach("r", Position{X: float64(i%7) * 0.5, Y: float64(i/7) * 0.5}, 0, phy.SensitivityWiFiMCS7)
		if i == 0 {
			tx = t
		}
		if i == 0 || i%3 != 0 {
			t.SetOn(true)
			t.Handler = func(Reception) {}
		}
	}
	return tx
}

// TestClusterDeliveryZeroAlloc pins the steady-state cost of a reception at
// zero: one beacon into a 28-radio cluster schedules 27 deliveries, each on
// a recycled record, sharing one recycled transmission.
func TestClusterDeliveryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the scheduler's wheel-level sync.Pool drops random Puts under the race detector")
	}
	s, m := newTestMedium()
	tx := cluster(m, 28)
	data := make([]byte, 64)
	for i := 0; i < 8; i++ {
		m.Transmit(tx, data, phy.RateHTMCS7SGI)
		s.RunFor(time.Millisecond)
	}
	before := m.Stats.Deliveries
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		m.Transmit(tx, data, phy.RateHTMCS7SGI)
		s.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("one beacon into a 28-radio cluster costs %.1f allocs, want 0", allocs)
	}
	// 18 of the 27 receivers listen; AllocsPerRun adds one warm-up run.
	if got, want := m.Stats.Deliveries-before, (runs+1)*18; got != want {
		t.Fatalf("delivered %d receptions, want %d", got, want)
	}
}

// TestTransmissionRecycledAfterLastEvent checks the frame's lifetime: it
// stays out of the free list until its last event — here the ledger's
// culled batch — has fired, and a recycled frame pins no payload or radio.
func TestTransmissionRecycledAfterLastEvent(t *testing.T) {
	s, m := newTestMedium()
	m.ObserveProvenance(obs.NewProvenance())
	tx := cluster(m, 5)
	m.Attach("far", Position{X: 500}, 0, phy.SensitivityWiFiMCS7)
	m.Transmit(tx, make([]byte, 64), phy.RateHTMCS7SGI)
	if len(m.freeTx) != 0 || s.Pending() != 5 {
		t.Fatalf("in flight: %d free transmissions, %d pending events; want 0 and 4 deliveries + 1 batch",
			len(m.freeTx), s.Pending())
	}
	s.Run()
	if len(m.freeTx) != 1 || len(m.freeDel) != 4 {
		t.Fatalf("after the frame: %d free transmissions, %d free deliveries; want 1 and 4", len(m.freeTx), len(m.freeDel))
	}
	if rec := m.freeTx[0]; rec.from != nil || rec.data != nil || rec.pending != 0 || len(rec.culled) != 0 {
		t.Fatalf("recycled transmission still holds state: %+v", *rec)
	}
	for _, d := range m.freeDel {
		if *d != (delivery{}) {
			t.Fatalf("recycled delivery still holds state: %+v", *d)
		}
	}
}
