package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramDropsNaN pins the defined NaN behavior: a NaN sample lands
// in no bucket, leaves count and sum untouched (one NaN would otherwise
// poison the sum forever), and is tallied in the dedicated drop counter
// that the snapshot exposes as "nan".
func TestHistogramDropsNaN(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_us", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(5)
	h.Observe(math.NaN())

	if got := h.Count(); got != 2 {
		t.Errorf("Count = %d, want 2 (NaN must not count as an observation)", got)
	}
	if got := h.Sum(); got != 5.5 {
		t.Errorf("Sum = %v, want 5.5 (NaN must not reach the sum)", got)
	}
	if got := h.NaNDropped(); got != 2 {
		t.Errorf("NaNDropped = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Histograms map[string]struct {
			Count   int64   `json:"count"`
			Sum     float64 `json:"sum"`
			NaN     int64   `json:"nan"`
			Buckets []struct {
				Count int64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	hs := doc.Histograms["lat_us"]
	if hs.Count != 2 || hs.Sum != 5.5 || hs.NaN != 2 {
		t.Errorf("snapshot = %+v, want count 2, sum 5.5, nan 2", hs)
	}
	total := int64(0)
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Errorf("buckets hold %d samples, want 2 (NaN must not occupy a bucket)", total)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("snapshot leaked a NaN literal (invalid JSON):\n%s", buf.String())
	}
}

// TestHistogramSnapshotPairConsistent hammers one histogram from writers
// while snapshotting: with every observation contributing the same value,
// any consistent count/sum pair satisfies sum == count*v exactly — a torn
// pair (count read before an Observe, sum after) breaks the identity — and
// every snapshot's buckets must sum to its count. Bucket counts used to be
// atomics loaded outside the count/sum critical section, so a snapshot
// could show Σ buckets ≠ count; this test pins the single-critical-section
// fix. Run with -race for full value.
func TestHistogramSnapshotPairConsistent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pair", []float64{1})
	const v = 0.5
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(v)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		count, sum, buckets := h.snapshot()
		if sum != float64(count)*v {
			t.Fatalf("torn snapshot: count=%d sum=%v (want %v)", count, sum, float64(count)*v)
		}
		var inBuckets int64
		for _, b := range buckets {
			inBuckets += b
		}
		if inBuckets != count {
			t.Fatalf("torn snapshot: Σ buckets=%d, count=%d", inBuckets, count)
		}
	}
	wg.Wait()
	if count, sum, _ := h.snapshot(); count != 4*perWriter || sum != 4*perWriter*v {
		t.Fatalf("final snapshot count=%d sum=%v", count, sum)
	}
}

// TestRegistryWriteJSONBucketsConsistent replays the same race through the
// public WriteJSON path: every concurrent snapshot must carry buckets that
// sum exactly to its count.
func TestRegistryWriteJSONBucketsConsistent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("race_us", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Histograms map[string]struct {
				Count   int64 `json:"count"`
				Buckets []struct {
					Count int64 `json:"count"`
				} `json:"buckets"`
			} `json:"histograms"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v", err)
		}
		hs := doc.Histograms["race_us"]
		var inBuckets int64
		for _, b := range hs.Buckets {
			inBuckets += b.Count
		}
		if inBuckets != hs.Count {
			t.Fatalf("WriteJSON snapshot torn: Σ buckets=%d, count=%d", inBuckets, hs.Count)
		}
	}
	wg.Wait()
}

// TestCounterViews: a counter's value is its own count plus whatever its
// views hold when read; registering a view again is a no-op.
func TestCounterViews(t *testing.T) {
	reg := NewRegistry()
	var a, b int
	a = 3 // counted before wiring: a view sees it
	reg.CounterView("x", &a)
	reg.CounterView("x", &b)
	reg.CounterView("x", &a)
	reg.Counter("x").Add(10)
	a++
	b += 5
	if got := reg.Counter("x").Value(); got != 19 {
		t.Fatalf("Value = %d, want 10 + 4 + 5", got)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"x": 19`) {
		t.Fatalf("snapshot does not carry the view total:\n%s", buf.String())
	}
}
