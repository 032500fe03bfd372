// Command perfbench is the repository's benchmark. It runs one workload of
// the Wi-LE simulator for a fixed time in a single process, checks every
// op's output, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time, op time
// percentiles, allocations, peak heap). With --trace 1 it reports the
// per-layer split instead: CPU self time and allocations charged to the
// repository's modules from a CPU profile and an exact heap profile, the
// exact work counts the program's public API exposes, and spans around
// the experiment calls. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"wile/internal/engine"
	"wile/internal/experiment"
)

// processStart stands in for the start of the process: package variables
// are initialized before main runs, after only the runtime's own start-up.
var processStart = time.Now()

// setupRepeats is how many processes set up per run; setup_s is their
// median. Each repeat is a fresh process so that work moved into a
// process-wide cache still shows.
const setupRepeats = 3

// peakHeapOps caps the timed ops peak_heap_mb covers, so that a world that
// grows as it runs reports the same work however fast the host is.
const peakHeapOps = 100

// defaultMemProfileRate is the runtime's default heap sampling rate.
const defaultMemProfileRate = 512 * 1024

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-eval, density or fleet")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long to run timed ops")
	trace := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for the per-layer split")
	setupOnly := fs.Bool("setup-only", false, "set up, print the set-up time and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload paper-eval|density|fleet [--seed n] [--seconds s] [--trace 0|1]")
		return 2
	}
	// Engine parallelism is left out: on a small shared machine a parallel
	// lane would measure the host scheduler.
	experiment.SetPool(engine.Serial())

	b := setUp(wl, *seed, processStart, stderr)
	if *setupOnly {
		return writeJSON(stdout, map[string]float64{"setup_s": b.setup.Seconds()}, stderr)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *trace == 1 {
		rep, err = b.traced(d)
	} else {
		rep, err = b.timed(d, func() ([]float64, error) { return childSetups(wl.name, *seed, setupRepeats-1) })
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Summary["workload"] = wl.name
	if pe, ok := b.inst.(*paperEval); ok && pe.first != nil {
		// The accuracy record: the simulator's Table 1 error against the
		// paper's measured energies, identical on every commit.
		acc := make(map[string]float64)
		for _, r := range pe.first.Table1 {
			acc[r.Name] = r.EnergyError
		}
		rep.Summary["table1_energy_error"] = acc
	}
	rep.Summary["seed"] = *seed
	rep.Summary["machine"] = map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if writeJSON(stdout, rep.Summary, stderr) != 0 {
		return 1
	}
	return writeJSON(stdout, rep.result(b), stderr)
}

// bench is a workload's world after set-up.
type bench struct {
	inst instance
	// setup is the time from process start to the first timed op.
	setup             time.Duration
	attempted, failed int
	log               io.Writer
}

// setUp builds the workload's world and runs one untimed warm-up op, whose
// check counts like any other op's.
func setUp(wl workload, seed uint64, start time.Time, log io.Writer) *bench {
	b := &bench{inst: wl.setup(seed), log: log}
	b.runOp()
	b.setup = time.Since(start)
	return b
}

// runOp runs and checks one op, and returns the op's duration and counts.
func (b *bench) runOp() (time.Duration, opStats) {
	t0 := time.Now()
	err := b.inst.op()
	d := time.Since(t0)
	var st opStats
	if err == nil {
		st, err = b.inst.check()
	}
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: op %d failed: %v\n", b.attempted, err)
	}
	return d, st
}

// phase is the outcome of running ops back to back for a while.
type phase struct {
	opsMS []float64 // each op's duration
	wall  time.Duration
	total opStats // counts summed over the ops
	spans map[string][]float64
}

// runFor runs ops until d has passed, and at least one. after, when not
// nil, is called with the op count after each op.
func (b *bench) runFor(d time.Duration, after func(ops int)) phase {
	p := phase{spans: make(map[string][]float64)}
	deadline := time.Now().Add(d)
	for len(p.opsMS) == 0 || time.Now().Before(deadline) {
		dur, st := b.runOp()
		p.opsMS = append(p.opsMS, ms(dur))
		p.wall += dur
		p.total.events += st.events
		p.total.receptions += st.receptions
		p.total.meterSamples += st.meterSamples
		p.total.txFrames += st.txFrames
		p.total.messages += st.messages
		for _, s := range st.spans {
			p.spans[s.name] = append(p.spans[s.name], ms(s.d))
		}
		if after != nil {
			after(len(p.opsMS))
		}
	}
	return p
}

func (p phase) ops() float64 { return float64(len(p.opsMS)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's metrics and the summary line printed before them.
type report struct {
	Metrics map[string]metric
	Summary map[string]any
}

func (r report) result(b *bench) any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, r.Metrics}
}

// timed measures the end-to-end metrics: ops run for d, then setups gives
// the set-up times of the other processes.
func (b *bench) timed(d time.Duration, setups func() ([]float64, error)) (report, error) {
	var m0, m1, heap runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := b.runFor(d, func(ops int) {
		if ops == peakHeapOps {
			runtime.ReadMemStats(&heap)
		}
	})
	runtime.ReadMemStats(&m1)
	if heap.HeapSys == 0 {
		heap = m1
	}
	others, err := setups()
	if err != nil {
		return report{}, err
	}
	setup := summarize(append([]float64{b.setup.Seconds()}, others...))
	op := summarize(p.opsMS)
	summary := map[string]any{
		"mode":         "end-to-end",
		"op_ms":        op,
		"ops_per_s":    p.ops() / p.wall.Seconds(),
		"setup_s":      setup,
		"failed_ratio": float64(b.failed) / float64(b.attempted),
	}
	if p.total.receptions > 0 {
		summary["receptions_per_s"] = float64(p.total.receptions) / p.wall.Seconds()
	}
	return report{
		Metrics: map[string]metric{
			"setup_s":         {setup.P50, "s"},
			"op_ms.p50":       {op.P50, "ms"},
			"allocs_per_op":   {float64(m1.Mallocs-m0.Mallocs) / p.ops(), "count"},
			"alloc_mb_per_op": {float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / p.ops(), "MB"},
			"peak_heap_mb":    {float64(heap.HeapSys) / 1e6, "MB"},
		},
		Summary: summary,
	}, nil
}

// traced measures the per-layer split in three phases of the run:
// per-layer allocation counts under a heap profile at MemProfileRate 1,
// untraced ops for the work counts and the baseline op time, and ops under
// the CPU profiler for per-layer self time.
func (b *bench) traced(d time.Duration) (report, error) {
	var m0, m1 runtime.MemStats
	// The runtime applies a new rate from the next allocation on.
	runtime.MemProfileRate = 1
	before := allocsByLayer()
	runtime.ReadMemStats(&m0)
	mem := b.runFor(d/5, nil)
	runtime.ReadMemStats(&m1)
	after := allocsByLayer()
	runtime.MemProfileRate = defaultMemProfileRate

	plain := b.runFor(d/5, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	traced := b.runFor(3*d/5, nil)
	pprof.StopCPUProfile()
	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return report{}, err
	}

	metrics := make(map[string]metric)
	var cpuTotal, cpuListed, allocTotal, allocListed int64
	for _, ns := range cpu {
		cpuTotal += ns
	}
	allocs := make(map[string]int64)
	for l, n := range after {
		allocs[l] = n - before[l]
		allocTotal += allocs[l]
	}
	for _, l := range layers {
		cpuListed += cpu[l]
		allocListed += allocs[l]
		metrics[l+".self_ms_per_op"] = metric{float64(cpu[l]) / 1e6 / traced.ops(), "ms"}
		metrics[l+".allocs_per_op"] = metric{float64(allocs[l]) / mem.ops(), "count"}
	}
	perOp := func(n int64) float64 { return float64(n) / plain.ops() }
	nsPer := func(n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(plain.wall.Nanoseconds()) / float64(n)
	}
	allocsPerReception := 0.0
	if mem.total.receptions > 0 {
		allocsPerReception = float64(allocs["medium"]) / float64(mem.total.receptions)
	}
	counts := map[string]metric{
		"sim.events_per_op":           {perOp(plain.total.events), "count"},
		"sim.ns_per_event":            {nsPer(plain.total.events), "ns"},
		"medium.receptions_per_op":    {perOp(plain.total.receptions), "count"},
		"medium.ns_per_reception":     {nsPer(plain.total.receptions), "ns"},
		"medium.allocs_per_reception": {allocsPerReception, "count"},
		"meter.samples_per_op":        {perOp(plain.total.meterSamples), "count"},
		"mac.tx_frames_per_op":        {perOp(plain.total.txFrames), "count"},
		"core.messages_per_op":        {perOp(plain.total.messages), "count"},
		"trace.overhead_ms":           {median(traced.opsMS) - median(plain.opsMS), "ms"},
		"experiment.table1_ms":        {median(traced.spans["table1"]), "ms"},
		"experiment.fig3a_ms":         {median(traced.spans["fig3a"]), "ms"},
		"experiment.fig3b_ms":         {median(traced.spans["fig3b"]), "ms"},
		"experiment.fig4_ms":          {median(traced.spans["fig4"]), "ms"},
		"experiment.claims_ms":        {median(traced.spans["claims"]), "ms"},
	}
	for k, v := range counts {
		metrics[k] = v
	}
	return report{
		Metrics: metrics,
		Summary: map[string]any{
			"mode":             "traced",
			"untraced_op_ms":   summarize(plain.opsMS),
			"traced_op_ms":     summarize(traced.opsMS),
			"heap_profile_ops": mem.ops(),
			// Every CPU sample is charged to exactly one layer; a layer
			// outside the listed ones would show as total > listed. The
			// runtime does not profile a tiny allocation that fits in its
			// current 16-byte block, so profiled can fall short of mallocs.
			"cpu_ns":         map[string]int64{"total": cpuTotal, "listed": cpuListed},
			"allocs":         map[string]int64{"mallocs": int64(m1.Mallocs - m0.Mallocs), "profiled": allocTotal, "listed": allocListed},
			"largest_layers": largest(cpu, 3),
		},
	}, nil
}

// largest names the n layers with the most CPU time, largest first.
func largest(cpu map[string]int64, n int) []string {
	names := make([]string, 0, len(cpu))
	for l := range cpu {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		if cpu[names[i]] != cpu[names[j]] {
			return cpu[names[i]] > cpu[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// childSetups sets the workload up in n fresh processes, one after the
// other, and returns each one's set-up time.
func childSetups(name string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var res struct {
			SetupS *float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(raw, &res); err != nil || res.SetupS == nil {
			return nil, fmt.Errorf("set-up process printed %q", raw)
		}
		out = append(out, *res.SetupS)
	}
	return out, nil
}

// dist is a timing distribution reported with its sample count.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// P90 is the 90th percentile where at least ten samples lie beyond it,
	// which takes 100 samples. Below that it is the highest percentile that
	// keeps ten samples beyond it, and the median below 20 samples; TailPct
	// names the percentile used.
	P90     float64 `json:"p90"`
	TailPct float64 `json:"tail_pct"`
}

// summarize reports the nearest-rank median and tail percentile of xs.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail := math.Max(50, math.Min(90, 100*(1-10/float64(len(s)))))
	return dist{N: len(s), P50: percentile(s, 50), P90: percentile(s, tail), TailPct: tail}
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// percentile is the nearest-rank p-th percentile of sorted, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func writeJSON(w io.Writer, v any, stderr io.Writer) int {
	line, err := json.Marshal(v)
	if err == nil {
		_, err = fmt.Fprintf(w, "%s\n", line)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
