package core

import (
	"bytes"
	"testing"
	"time"

	"wile/internal/dot11"
	"wile/internal/medium"
	"wile/internal/phy"
)

// TestMessagePathAllocs pins what one message costs from sensor wake to
// scanner delivery: the MPDU (every receiver aliases it), the MAC's
// outgoing record and the decoded message with its first reading
// (OnMessage callers and DeviceRecord.Last keep it). The wake record, the
// beacon and its build buffers, the marshal scratch and the decoder slots
// are all reused. Every message the default Sample and the paper
// experiments send carries one reading; a second one costs the decoded
// message a readings slice of its own.
func TestMessagePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Puts under the race detector; steady-state alloc counts are nondeterministic")
	}
	for _, tc := range []struct {
		name     string
		readings []Reading
		max      float64
	}{
		{"one reading", []Reading{Temperature(17)}, 3},
		{"two readings", []Reading{Temperature(17), Battery(3000)}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x1001, Position: pos(0, 0), SkipBoot: true})
			scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(3, 0)})
			scanner.Start()
			wake := func() {
				sensor.TransmitOnce(tc.readings, nil)
				r.sched.Run()
			}
			for i := 0; i < 8; i++ {
				wake()
			}
			before := scanner.Stats.Messages
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, wake); allocs > tc.max {
				t.Fatalf("one SkipBoot wake to scanner delivery costs %v allocs, want <= %v", allocs, tc.max)
			}
			// AllocsPerRun adds one warm-up run.
			if got := scanner.Stats.Messages - before; got != runs+1 {
				t.Fatalf("scanner decoded %d messages, want %d", got, runs+1)
			}
		})
	}
}

// TestRunLoopWakeAllocs pins a Run-loop wake with the boot profile: one
// allocation over the SkipBoot path, the default Sample's reading slice.
func TestRunLoopWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Puts under the race detector; steady-state alloc counts are nondeterministic")
	}
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x1001, Position: pos(0, 0), Period: time.Second})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(3, 0)})
	scanner.Start()
	sensor.Run()
	// nextWake runs the loop from one injection to the next.
	nextWake := func() {
		for n := sensor.Stats.Messages; sensor.Stats.Messages == n; {
			if !r.sched.Step() {
				t.Fatal("the Run loop stopped scheduling")
			}
		}
	}
	for i := 0; i < 8; i++ {
		nextWake()
	}
	before := scanner.Stats.Messages
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, nextWake); allocs > 4 {
		t.Fatalf("one Run-loop wake costs %v allocs, want <= 4", allocs)
	}
	if got := scanner.Stats.Messages - before; got != runs+1 {
		t.Fatalf("scanner decoded %d messages, want %d", got, runs+1)
	}
}

// TestConsecutiveWakesLeaveNoStaleBytes reuses one wake record for a long
// message, a short one and a medium one: every MPDU on the air must equal
// a freshly built beacon's, so a short message never carries bytes left
// over from a longer one.
func TestConsecutiveWakesLeaveNoStaleBytes(t *testing.T) {
	r := newRig()
	key := testKey(t)
	cfg := SensorConfig{DeviceID: 0x1001, Position: pos(0, 0), SkipBoot: true, Key: key, RxWindow: 20 * time.Millisecond}
	sensor := NewSensor(r.sched, r.med, cfg)
	var onAir [][]byte
	mon := r.med.Attach("monitor", pos(1, 0), 0, phy.SensitivityWiFiMCS7)
	mon.SetOn(true)
	mon.Handler = func(rx medium.Reception) { onAir = append(onAir, append([]byte(nil), rx.Data...)) }

	raw := make([]byte, 600)
	for i := range raw {
		raw[i] = byte(i*7 + 1)
	}
	for i, tc := range []struct {
		readings []Reading
		frags    int
	}{
		{[]Reading{RawReading(raw[:250]), RawReading(raw[250:500]), RawReading(raw[500:])}, 3},
		{[]Reading{RawReading(raw[:1])}, 1},
		{[]Reading{RawReading(raw[100:350]), Temperature(-4)}, 2},
	} {
		fragsBefore := sensor.Stats.Fragments
		sensor.TransmitOnce(tc.readings, nil)
		r.sched.Run()
		if got := sensor.Stats.Fragments - fragsBefore; got != tc.frags {
			t.Fatalf("wake %d sent %d fragments, want %d", i, got, tc.frags)
		}
		want, err := BuildBeacon(sensor.BSSID(), sensor.Cfg.Channel, &Message{
			DeviceID: cfg.DeviceID, Seq: uint16(i), Readings: tc.readings, RxWindow: cfg.RxWindow}, key)
		if err != nil {
			t.Fatal(err)
		}
		want.Sequence = uint16(i) // the port's sequence counter
		wantRaw, err := dot11.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(onAir) != i+1 || !bytes.Equal(onAir[i], wantRaw) {
			t.Fatalf("wake %d put %x on the air, want %x", i, onAir[len(onAir)-1], wantRaw)
		}
	}
	if len(sensor.wakes) != 1 {
		t.Fatalf("%d wake records on the free list, want the one reused record", len(sensor.wakes))
	}
}

// TestOverlappingWakes starts a second cycle before the first has sent.
// Each gets its own record, so each keeps its own message and callback.
func TestOverlappingWakes(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x1001, Position: pos(0, 0), SkipBoot: true})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(3, 0)})
	scanner.Start()
	var got []int64
	scanner.OnMessage = func(m *Message, _ Meta) { got = append(got, m.Readings[0].Value) }
	var calls []string
	sensor.TransmitOnce([]Reading{Counter(1)}, func(bool) { calls = append(calls, "first") })
	sensor.TransmitOnce([]Reading{Counter(2)}, func(bool) { calls = append(calls, "second") })
	r.sched.Run()
	if len(calls) != 2 || calls[0] != "first" || calls[1] != "second" {
		t.Fatalf("callbacks ran as %v, want [first second]", calls)
	}
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("scanner got %v, want the first message's counter first", got)
	}
	if len(sensor.wakes) != 2 {
		t.Fatalf("%d wake records on the free list, want 2", len(sensor.wakes))
	}
}
