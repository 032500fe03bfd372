package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDropsReportGolden pins the byte-for-byte output of
// `wile-trace -drops -json fig3a`: the JSON drop report over the fully
// deterministic Figure 3a world. Any change to frame accounting, the drop
// taxonomy, report ordering or serialization shows up here. Regenerate with
// WILE_UPDATE_GOLDEN=1 when the change is intentional.
func TestDropsReportGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-drops", "-json", "fig3a"}, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	golden := filepath.Join("testdata", "fig3a_drops.json")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("drop report diverged from golden (%d vs %d bytes); rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s",
			out.Len(), len(want), out.String())
	}
}

// TestDropsReportText sanity-checks the human-readable form: the header,
// the closed outcome table and at least one link row.
func TestDropsReportText(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-drops", "fig3b"}, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	text := out.String()
	for _, want := range []string{"frames ", "delivered", "radio_off", "links:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestJSONRequiresDrops pins the flag contract.
func TestJSONRequiresDrops(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-json", "fig3a"}, io.Discard, &errBuf); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "-json requires -drops") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

// TestMetricsSnapshotGolden pins the byte-for-byte registry snapshot of
// `wile-trace -metrics f.json fig3a`. The Figure 3a join exercises the mac,
// sta, ap and medium counters, so any change to what is counted, or to how
// components expose their counts to the registry, shows up here.
// Regenerate with WILE_UPDATE_GOLDEN=1 when the change is intentional.
func TestMetricsSnapshotGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if code := run([]string{"-metrics", path, "fig3a"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig3a_metrics.json")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics snapshot diverged from golden (%d vs %d bytes); rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s",
			len(got), len(want), got)
	}
}
