package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/sim"
)

// TestLateObserveIncludesEarlierCounts: a registry wired after traffic has
// flowed must still report everything the components counted, and wiring
// it a second time must change nothing.
func TestLateObserveIncludesEarlierCounts(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{
		DeviceID: 0xbb, Position: pos(0, 0), Period: 10 * time.Second,
	})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()
	sensor.Run()
	r.sched.RunUntil(35 * sim.Second)
	if sensor.Stats.Messages == 0 || scanner.Stats.Messages == 0 {
		t.Fatalf("no traffic before wiring: sensor %+v, scanner %+v", sensor.Stats, scanner.Stats)
	}

	reg := obs.NewRegistry()
	check := func(when string) {
		t.Helper()
		for name, want := range map[string]int{
			"wile.tx_messages": sensor.Stats.Messages,
			"wile.rx_messages": scanner.Stats.Messages,
			"mac.tx_frames":    sensor.Port.Stats.TxFrames + scanner.Port.Stats.TxFrames,
		} {
			if got := reg.Counter(name).Value(); got != int64(want) {
				t.Errorf("%s: %s = %d, want %d", when, name, got, want)
			}
		}
	}
	sensor.Observe(reg)
	scanner.Observe(reg)
	check("after late Observe")
	sensor.Observe(reg)
	scanner.Observe(reg)
	check("after second Observe")

	// Counting goes on after wiring, and the registry follows.
	r.sched.RunUntil(65 * sim.Second)
	sensor.Stop()
	check("after more traffic")
}

// TestConcurrentObserveSharedRegistry: worlds built, wired into one shared
// registry and run on separate goroutines must snapshot, once all of them
// have returned, to exactly the sum of their components' Stats. Run under
// -race: registration is the only registry state the goroutines share.
func TestConcurrentObserveSharedRegistry(t *testing.T) {
	const worlds = 4
	reg := obs.NewRegistry()
	type world struct {
		rig     *rig
		sensors []*Sensor
		scanner *Scanner
	}
	ws := make([]world, worlds)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(w *world, id uint32) {
			defer wg.Done()
			w.rig = newRig()
			w.rig.med.Observe(reg)
			w.scanner = NewScanner(w.rig.sched, w.rig.med, ScannerConfig{Position: pos(2, 0)})
			w.scanner.Observe(reg)
			w.scanner.Start()
			for j := uint32(0); j < 3; j++ {
				s := NewSensor(w.rig.sched, w.rig.med, SensorConfig{
					DeviceID: id<<4 | j, Position: pos(float64(j), 1), Period: 5 * time.Second,
					Seed: uint64(id<<4 | j),
				})
				s.Observe(reg)
				s.Run()
				w.sensors = append(w.sensors, s)
			}
			w.rig.sched.RunUntil(30 * sim.Second)
			for _, s := range w.sensors {
				s.Stop()
			}
		}(&ws[i], uint32(i+1))
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	want := map[string]int64{}
	for _, w := range ws {
		st := w.rig.med.Stats
		want["wile.medium_transmissions"] += int64(st.Transmissions)
		want["wile.medium_deliveries"] += int64(st.Deliveries)
		want["wile.medium_collisions"] += int64(st.Collisions)
		want["wile.rx_messages"] += int64(w.scanner.Stats.Messages)
		want["wile.beacons_seen"] += int64(w.scanner.Stats.BeaconsSeen)
		want["mac.tx_frames"] += int64(w.scanner.Port.Stats.TxFrames)
		want["mac.rx_frames"] += int64(w.scanner.Port.Stats.RxFrames)
		for _, s := range w.sensors {
			want["wile.tx_messages"] += int64(s.Stats.Messages)
			want["wile.tx_fragments"] += int64(s.Stats.Fragments)
			want["mac.tx_frames"] += int64(s.Port.Stats.TxFrames)
			want["mac.rx_frames"] += int64(s.Port.Stats.RxFrames)
		}
	}
	if want["wile.rx_messages"] == 0 {
		t.Fatal("no scanner received anything; the test exercises nothing")
	}
	for name, n := range want {
		if got, ok := snap.Counters[name]; !ok || got != n {
			t.Errorf("%s = %d (present %v), want Σ Stats = %d", name, got, ok, n)
		}
	}
}
