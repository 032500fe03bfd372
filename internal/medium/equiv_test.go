package medium

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Differential test for the scaling refactor (DESIGN.md §12): the culled,
// gridded, incrementally busy-tracked medium must be byte-identical to the
// all-pairs reference — same reception traces (order included), same
// Stats, same carrier-sense answers, same drop reports — on randomized
// topologies with mixed sensitivities, powers, dead radios and overlapping
// schedules.

// equivScenario is a fully pre-generated world + transmission schedule, so
// both media replay exactly the same inputs.
type equivScenario struct {
	pos    []Position
	power  []phy.DBm
	sens   []phy.DBm
	on     []bool
	deaf   []bool // attached with no handler
	txAt   []time.Duration
	txFrom []int
	txLen  []int
	txRate []phy.Rate
	probes []time.Duration
	// moves holds the positions for each replay of the schedule after the
	// first; radios move by SetPos while the air is quiet between replays.
	moves [][]Position
}

// equivRound spaces the replays of a moving scenario: every frame and probe
// of a replay finishes well inside it, so no frame is in flight at a move.
const equivRound = 200 * time.Millisecond

func genScenario(seed uint64) equivScenario {
	rng := sim.NewRand(seed)
	var sc equivScenario
	n := 2 + rng.Intn(39)
	powers := []phy.DBm{0, 10, 20}
	senses := []phy.DBm{phy.SensitivityWiFiMCS7, -85, phy.SensitivityBLE}
	for i := 0; i < n; i++ {
		sc.pos = append(sc.pos, Position{X: rng.Float64() * 60, Y: rng.Float64() * 60})
		sc.power = append(sc.power, powers[rng.Intn(len(powers))])
		sc.sens = append(sc.sens, senses[rng.Intn(len(senses))])
		sc.on = append(sc.on, rng.Float64() < 0.8)
		sc.deaf = append(sc.deaf, rng.Float64() < 0.15)
	}
	txs := 5 + rng.Intn(60)
	for i := 0; i < txs; i++ {
		from := rng.Intn(n)
		if !sc.on[from] {
			continue // powered-off radios cannot transmit
		}
		sc.txAt = append(sc.txAt, time.Duration(rng.Float64()*float64(100*time.Millisecond)))
		sc.txFrom = append(sc.txFrom, from)
		sc.txLen = append(sc.txLen, rng.Intn(400))
		rate := phy.RateOFDM6
		if rng.Float64() < 0.3 {
			rate = phy.RateDSSS1
		}
		sc.txRate = append(sc.txRate, rate)
	}
	for i := 0; i < 20; i++ {
		sc.probes = append(sc.probes, time.Duration(rng.Float64()*float64(120*time.Millisecond)))
	}
	return sc
}

// playScenario runs sc on a fresh medium and renders everything observable
// into one string.
func playScenario(sc equivScenario, allPairs bool) string {
	s := sim.New()
	m := New(s, phy.WiFi24Channel(6))
	m.allPairs = allPairs
	prov := obs.NewProvenance()
	m.ObserveProvenance(prov)

	var out bytes.Buffer
	radios := make([]*Transceiver, len(sc.pos))
	for i := range sc.pos {
		radios[i] = m.Attach(fmt.Sprintf("r%d", i), sc.pos[i], sc.power[i], sc.sens[i])
		radios[i].SetOn(sc.on[i])
		if !sc.deaf[i] {
			i := i
			radios[i].Handler = func(r Reception) {
				fmt.Fprintf(&out, "rx r%d len=%d rssi=%.4f collided=%v start=%v end=%v frame=%d\n",
					i, len(r.Data), float64(r.RSSI), r.Collided, r.Start, r.End, r.Frame)
			}
		}
	}
	for round := 0; round <= len(sc.moves); round++ {
		base := time.Duration(round) * equivRound
		if round > 0 {
			pos := sc.moves[round-1]
			s.After(base-equivRound/10, func() {
				for i, t := range radios {
					t.SetPos(pos[i])
				}
			})
		}
		for i, at := range sc.txAt {
			i := i
			s.After(base+at, func() {
				m.Transmit(radios[sc.txFrom[i]], make([]byte, sc.txLen[i]), sc.txRate[i])
			})
		}
		for _, at := range sc.probes {
			at := base + at
			s.After(at, func() {
				for i, t := range radios {
					fmt.Fprintf(&out, "probe t=%v r%d busy=%v until=%v\n", at, i, m.Busy(t), m.BusyUntil(t))
				}
			})
		}
	}
	s.Run()

	fmt.Fprintf(&out, "stats %+v\n", m.Stats)
	if err := prov.Verify(); err != nil {
		fmt.Fprintf(&out, "conservation violated: %v\n", err)
	}
	if err := prov.WriteReport(&out); err != nil {
		fmt.Fprintf(&out, "report error: %v\n", err)
	}
	return out.String()
}

func TestCulledMatchesAllPairs(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		sc := genScenario(seed)
		ref := playScenario(sc, true)
		got := playScenario(sc, false)
		if got != ref {
			t.Fatalf("seed %d: culled medium diverged from all-pairs reference\n--- all-pairs ---\n%s\n--- culled ---\n%s", seed, ref, got)
		}
	}
}

// TestCulledMatchesAllPairsMoving replays each schedule three times with the
// ledger attached, moving radios by SetPos between replays across a field
// wide enough that some pairs fall out of every interference radius. The
// ledger runs through the grid walk, so the re-bucketed candidates and the
// culled complement must both track the moves.
func TestCulledMatchesAllPairsMoving(t *testing.T) {
	for seed := uint64(200); seed < 250; seed++ {
		sc := genScenario(seed)
		rng := sim.NewRand(seed)
		for r := 0; r < 2; r++ {
			pos := append([]Position(nil), sc.pos...)
			for i := range pos {
				if rng.Float64() < 0.5 {
					pos[i] = Position{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
				}
			}
			sc.moves = append(sc.moves, pos)
		}
		ref := playScenario(sc, true)
		got := playScenario(sc, false)
		if got != ref {
			t.Fatalf("seed %d: culled medium diverged from all-pairs reference\n--- all-pairs ---\n%s\n--- culled ---\n%s", seed, ref, got)
		}
	}
}

// TestCulledMatchesAllPairsNoProv repeats the differential check without a
// ledger, so no batch event resolves the culled radios and only the grid
// candidates get events.
func TestCulledMatchesAllPairsNoProv(t *testing.T) {
	play := func(sc equivScenario, allPairs bool) string {
		s := sim.New()
		m := New(s, phy.WiFi24Channel(6))
		m.allPairs = allPairs
		var out bytes.Buffer
		radios := make([]*Transceiver, len(sc.pos))
		for i := range sc.pos {
			radios[i] = m.Attach(fmt.Sprintf("r%d", i), sc.pos[i], sc.power[i], sc.sens[i])
			radios[i].SetOn(sc.on[i])
			if !sc.deaf[i] {
				i := i
				radios[i].Handler = func(r Reception) {
					fmt.Fprintf(&out, "rx r%d len=%d rssi=%.4f collided=%v start=%v end=%v\n",
						i, len(r.Data), float64(r.RSSI), r.Collided, r.Start, r.End)
				}
			}
		}
		for i, at := range sc.txAt {
			i := i
			s.After(at, func() {
				m.Transmit(radios[sc.txFrom[i]], make([]byte, sc.txLen[i]), sc.txRate[i])
			})
		}
		for _, at := range sc.probes {
			at := at
			s.After(at, func() {
				for i, t := range radios {
					fmt.Fprintf(&out, "probe t=%v r%d busy=%v until=%v\n", at, i, m.Busy(t), m.BusyUntil(t))
				}
			})
		}
		s.Run()
		fmt.Fprintf(&out, "stats %+v\n", m.Stats)
		return out.String()
	}
	for seed := uint64(100); seed < 150; seed++ {
		sc := genScenario(seed)
		ref := play(sc, true)
		got := play(sc, false)
		if got != ref {
			t.Fatalf("seed %d: gridded medium diverged from all-pairs reference\n--- all-pairs ---\n%s\n--- culled ---\n%s", seed, ref, got)
		}
	}
}
