package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"wile/internal/crypto80211"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"stdlib under a layer", []string{
			"crypto/sha1.blockAMD64", "crypto/sha1.(*digest).Write", "crypto/hmac.(*hmac).Write",
			"wile/internal/crypto80211.PBKDF2SHA1", "wile/internal/ap.New", "main.main",
		}, "crypto80211"},
		{"runtime under a layer", []string{
			"runtime.mallocgc", "runtime.newobject", "wile/internal/medium.(*Medium).scheduleDelivery",
			"wile/internal/medium.(*Medium).Transmit", "wile/internal/experiment.runDensityPoint.func2",
		}, "medium"},
		{"runtime only", []string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{"benchmark frames only", []string{"main.(*bench).runFor", "main.run", "main.main"}, "runtime"},
		{"public package above a layer", []string{"wile/internal/core.NewSensor", "wile.NewSensor", "main.newFleet"}, "core"},
		{"generic instantiation", []string{
			"wile/internal/engine.Map[go.shape.struct { wile/internal/experiment.row int }]",
			"wile/internal/experiment.RunTable1",
		}, "engine"},
		{"sub-package", []string{"wile/internal/analysis/analysistest.Run"}, "analysis"},
		{"empty", nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCPUProfileChargesEverySample(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		crypto80211.PBKDF2SHA1([]byte("passphrase"), []byte("ssid"), 256, 32)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no CPU samples taken")
	}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		total += s.nanos
	}
	byLayer, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var charged int64
	for _, ns := range byLayer {
		charged += ns
	}
	if charged != total {
		t.Errorf("charged %d ns of %d sampled", charged, total)
	}
	// The race detector's own frames can outweigh the hashing; among the
	// program's layers crypto80211 must still come first.
	delete(byLayer, "runtime")
	if got := largest(byLayer, 1); len(got) != 1 || got[0] != "crypto80211" {
		t.Errorf("largest layer %v, want crypto80211 (split %v)", got, byLayer)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parsed garbage without an error")
	}
}

// newBench sets a workload up the way run does, logging op failures to t.
func newBench(t *testing.T, name string, seed uint64, log io.Writer) *bench {
	t.Helper()
	wl, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return setUp(wl, seed, time.Now(), log)
}

func TestPerturbedExpectationFailsOps(t *testing.T) {
	pe := newPaperEval()
	pe.want.Table1[2].EnergyJ *= 1.001
	var log bytes.Buffer
	b := &bench{inst: pe, log: &log}
	b.runFor(time.Millisecond, nil)
	b.runFor(time.Millisecond, nil)
	if b.attempted != 2 || b.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want both ops failed", b.attempted, b.failed)
	}
	if !strings.Contains(log.String(), "differs from the recorded") {
		t.Errorf("failure log %q does not name the recorded output", log.String())
	}
	res, _ := json.Marshal(report{}.result(b))
	if !strings.Contains(string(res), `"correct":false`) {
		t.Errorf("result %s does not report the failure", res)
	}
}

func TestWorkloadsPassAtDefaultSeed(t *testing.T) {
	for _, name := range []string{"paper-eval", "fleet"} {
		var log bytes.Buffer
		b := newBench(t, name, defaultSeed, &log)
		b.runFor(time.Millisecond, nil)
		if b.failed != 0 {
			t.Errorf("%s: %d of %d ops failed:\n%s", name, b.failed, b.attempted, log.String())
		}
	}
}

func TestSeedChangesOnlySeededInputs(t *testing.T) {
	if densityConfig(1).Seed == densityConfig(2).Seed {
		t.Error("density inputs ignore the seed")
	}
	if !reflect.DeepEqual(fleetLayout(7), fleetLayout(7)) {
		t.Error("fleet inputs differ for one seed")
	}
	if reflect.DeepEqual(fleetLayout(1), fleetLayout(2)) {
		t.Error("fleet inputs ignore the seed")
	}
	if newFleet(1).last == newFleet(2).last {
		t.Error("fleet worlds for two seeds ran identically")
	}
	var outs []paperOut
	for _, seed := range []uint64{1, 2} {
		b := newBench(t, "paper-eval", seed, io.Discard)
		pe := b.inst.(*paperEval)
		if b.failed != 0 || pe.first == nil {
			t.Fatalf("seed %d: paper-eval warm-up op failed", seed)
		}
		outs = append(outs, *pe.first)
	}
	if outs[0] != outs[1] {
		t.Errorf("paper-eval output depends on the seed:\n%+v\n%+v", outs[0], outs[1])
	}
}

// countOps is an instance whose ops take no time and never fail.
type countOps struct{ n int }

func (c *countOps) op() error               { c.n++; return nil }
func (c *countOps) check() (opStats, error) { return opStats{}, nil }

func TestPercentilesCarrySampleCount(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // 1..n, unsorted
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want dist
	}{
		{200, dist{N: 200, P50: 100, P90: 180, TailPct: 90}},
		{100, dist{N: 100, P50: 50, P90: 90, TailPct: 90}},
		{50, dist{N: 50, P50: 25, P90: 40, TailPct: 80}}, // ten samples beyond
		{10, dist{N: 10, P50: 5, P90: 5, TailPct: 50}},   // too few for a tail
		{1, dist{N: 1, P50: 1, P90: 1, TailPct: 50}},
	} {
		if got := summarize(ramp(c.n)); got != c.want {
			t.Errorf("summarize(1..%d) = %+v, want %+v", c.n, got, c.want)
		}
	}

	inst := &countOps{}
	b := &bench{inst: inst, log: io.Discard}
	rep, err := b.timed(20*time.Millisecond, func() ([]float64, error) { return []float64{0.2, 0.3}, nil })
	if err != nil {
		t.Fatal(err)
	}
	op, ok := rep.Summary["op_ms"].(dist)
	if !ok || op.N != inst.n || op.N == 0 {
		t.Errorf("op_ms summary %+v, want n = %d ops", rep.Summary["op_ms"], inst.n)
	}
	if setup, ok := rep.Summary["setup_s"].(dist); !ok || setup.N != 3 {
		t.Errorf("setup_s summary %+v, want n = 3 set-ups", rep.Summary["setup_s"])
	}
	line, err := json.Marshal(rep.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"op_ms":{"n":`) {
		t.Errorf("summary line %s does not print the sample count", line)
	}
	for _, m := range []string{"setup_s", "op_ms.p50", "allocs_per_op", "alloc_mb_per_op", "peak_heap_mb"} {
		if _, ok := rep.Metrics[m]; !ok {
			t.Errorf("end-to-end metric %s missing", m)
		}
	}
}
