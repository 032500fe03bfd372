package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wile/internal/obs"
)

// renderFig3bObs runs the traced Figure-3b experiment and serializes both
// observability views — the Chrome trace and the metrics snapshot — into
// one byte stream. sched adds the scheduler firehose to the trace.
func renderFig3bObs(t *testing.T, sched bool) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	if _, err := RunFig3bObs(&Obs{Rec: rec, Reg: reg, Sched: sched}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFig3bTraceGolden pins the traced Figure-3b run byte-for-byte. The
// golden file is the acceptance artifact: a valid Chrome trace-event JSON
// document (open it at https://ui.perfetto.dev) followed by the metrics
// snapshot. Regenerate with WILE_UPDATE_GOLDEN=1 after intentional changes.
func TestFig3bTraceGolden(t *testing.T) {
	got := renderFig3bObs(t, false)
	path := filepath.Join("testdata", "fig3b_trace.golden")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traced fig3b output diverged from golden (%d vs %d bytes); "+
			"rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional",
			len(got), len(want))
	}
}

// TestFig3bTraceIsValidChromeJSON verifies the export parses as the Chrome
// trace-event format Perfetto consumes: a traceEvents array whose entries
// all carry a phase code, with our process metadata up front.
func TestFig3bTraceIsValidChromeJSON(t *testing.T) {
	rec := obs.NewRecorder()
	if _, err := RunFig3bObs(&Obs{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 20 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, ok := e["ph"].(string)
		if !ok {
			t.Fatalf("event missing ph: %v", e)
		}
		phases[ph]++
	}
	// The run must exercise every event kind: metadata, power-state slices
	// (B/E), MAC spans (X), instants and the meter counter.
	for _, ph := range []string{"M", "B", "E", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (phases: %v)", ph, phases)
		}
	}
}

// TestFig3bTraceDeterministicAcrossProcs is the tentpole's determinism
// gate: the traced run exports byte-identical output across repeated runs
// and across GOMAXPROCS settings, because every event is keyed on sim.Time
// alone. The scheduler firehose (~100k events) is pinned the same way.
func TestFig3bTraceDeterministicAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sched := range []bool{false, true} {
		var reference []byte
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for run := 0; run < 2; run++ {
				got := renderFig3bObs(t, sched)
				if reference == nil {
					reference = got
					continue
				}
				if !bytes.Equal(got, reference) {
					t.Fatalf("sched=%v GOMAXPROCS=%d run=%d: trace differs from reference (%d vs %d bytes)",
						sched, procs, run, len(got), len(reference))
				}
			}
		}
	}
}

// TestFig3bStreamedTraceByteIdentical pins the block-wise export at the
// experiment level: the traced Figure-3b run with the scheduler firehose,
// streamed to a file in many export blocks, is byte-identical to the same
// recorder exported into memory and to a second export of it, across
// GOMAXPROCS settings.
func TestFig3bStreamedTraceByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reference []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rec := obs.NewRecorder()
		if _, err := RunFig3bObs(&Obs{Rec: rec, Sched: true}); err != nil {
			t.Fatal(err)
		}
		var buffered bytes.Buffer
		if err := rec.WriteChromeTrace(&buffered); err != nil {
			t.Fatal(err)
		}
		if buffered.Len() < 8*(32<<10) {
			t.Fatalf("firehose trace is %d bytes; too small to span many export blocks", buffered.Len())
		}
		path := filepath.Join(t.TempDir(), "fig3b.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buffered.Bytes(), streamed) {
			t.Fatalf("GOMAXPROCS=%d: streamed export differs from buffered (%d vs %d bytes)",
				procs, len(streamed), buffered.Len())
		}
		if reference == nil {
			reference = buffered.Bytes()
		} else if !bytes.Equal(buffered.Bytes(), reference) {
			t.Fatalf("GOMAXPROCS=%d: export not deterministic across proc counts", procs)
		}
	}
}

// TestMetricsSnapshotSubsumesMACStats asserts the registry carries every
// counter the ad-hoc mac.Stats struct used to be the only home of.
func TestMetricsSnapshotSubsumesMACStats(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := RunFig3bObs(&Obs{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"mac.tx_frames", "mac.tx_acks", "mac.rx_frames", "mac.rx_fcs_errors",
		"mac.rx_duplicates", "mac.retries", "mac.drops",
	} {
		if _, ok := doc.Counters[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	// The injected beacon flew and the scanner heard it.
	if doc.Counters["mac.tx_frames"] == 0 {
		t.Error("mac.tx_frames is zero after a transmission")
	}
	if doc.Counters["mac.rx_frames"] == 0 {
		t.Error("mac.rx_frames is zero after a reception")
	}
}

// TestTable1FeedsEnergyHistogram verifies the per-experiment energy
// histogram fills when a registry is installed.
func TestTable1FeedsEnergyHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four Table 1 scenarios")
	}
	reg := obs.NewRegistry()
	defer SetMetrics(SetMetrics(reg))
	if _, err := RunTable1(); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("experiment.energy_per_packet_uj", nil)
	if h.Count() != 4 {
		t.Fatalf("energy histogram has %d observations, want 4", h.Count())
	}
	// Engine metrics were rewired onto the pool by SetMetrics.
	if reg.Counter("engine.sweeps").Value() == 0 {
		t.Error("engine.sweeps not incremented by the Table 1 sweep")
	}
}
