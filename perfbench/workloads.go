package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"wile"
	"wile/internal/experiment"
)

// defaultSeed is the seed the recorded outputs in expected.go belong to.
const defaultSeed = 1

// opStats is what one op's output check reads back: the exact work counts
// the workload can see through the program's public API (zero where it
// cannot see a layer) and, for paper-eval, the duration of each experiment
// call inside the op.
type opStats struct {
	events       int64 // sim kernel events fired
	receptions   int64 // medium deliveries plus collisions
	meterSamples int64 // multimeter samples recorded
	txFrames     int64 // MAC frames put on the air
	messages     int64 // Wi-LE messages injected
	spans        []span
}

type span struct {
	name string
	d    time.Duration
}

// instance is one workload's world after set-up.
type instance interface {
	// op runs one unit of timed work.
	op() error
	// check verifies the outputs of the op that just ran and returns its
	// counts. An error marks the op failed; it never aborts the run.
	check() (opStats, error)
}

// workload is one named input set of the benchmark.
type workload struct {
	name  string
	setup func(seed uint64) instance
}

var workloads = []workload{
	{"paper-eval", func(uint64) instance { return newPaperEval() }},
	{"density", func(seed uint64) instance { return newDensity(seed) }},
	{"fleet", func(seed uint64) instance { return newFleet(seed) }},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperEval regenerates the paper's figures the way wile-lab does: Table 1,
// Figures 3a, 3b and 4, and the §3.1 frame counts. Its inputs are the
// paper's, so it takes no seed.
type paperEval struct {
	// want is the output every op must reproduce besides the first op's.
	want  paperOut
	first *paperOut

	table  *experiment.Table1Result
	fig3a  *experiment.Trace
	fig3b  *experiment.Trace
	fig4   *experiment.Fig4Result
	claims *experiment.ClaimsResult
	spans  [5]span
}

// paperOut is everything a paper-eval op's check compares.
type paperOut struct {
	Table1        [4]table1Out
	Fig3aJ        float64
	Fig3aSamples  int
	Fig3aTx       time.Duration
	Fig3bJ        float64
	Fig4Crossover time.Duration
	// MACFrames, HigherFrames and FourWayFrames are the §3.1 counts.
	MACFrames     int
	HigherFrames  int
	FourWayFrames int
}

// table1Out is one Table 1 column. EnergyError is the simulator's
// deviation from the paper's measured energy: the accuracy record.
type table1Out struct {
	Name        string
	EnergyJ     float64
	IdleA       float64
	EnergyError float64
}

func newPaperEval() *paperEval { return &paperEval{want: recordedPaperEval} }

func (p *paperEval) op() error {
	p.release()
	var err error
	timed := func(i int, name string, fn func()) {
		t0 := time.Now()
		fn()
		p.spans[i] = span{name, time.Since(t0)}
	}
	timed(0, "table1", func() { p.table, err = experiment.RunTable1() })
	if err != nil {
		return err
	}
	timed(1, "fig3a", func() { p.fig3a, err = experiment.RunFig3a() })
	if err != nil {
		return err
	}
	timed(2, "fig3b", func() { p.fig3b, err = experiment.RunFig3b() })
	if err != nil {
		return err
	}
	timed(3, "fig4", func() { p.fig4 = experiment.RunFig4(p.table, experiment.DefaultFig4Intervals()) })
	timed(4, "claims", func() { p.claims, err = experiment.RunClaims() })
	return err
}

// release hands the figure traces back to the meter pool.
func (p *paperEval) release() {
	for _, tr := range []*experiment.Trace{p.fig3a, p.fig3b} {
		if tr != nil {
			tr.Release()
		}
	}
	p.fig3a, p.fig3b = nil, nil
}

func (p *paperEval) check() (opStats, error) {
	defer p.release()
	out, err := p.output()
	if err != nil {
		return opStats{}, err
	}
	if p.first == nil {
		p.first = &out
	}
	if out != *p.first {
		return opStats{}, fmt.Errorf("paper-eval output %+v differs from the first op's %+v", out, *p.first)
	}
	if out != p.want {
		return opStats{}, fmt.Errorf("paper-eval output %+v differs from the recorded %+v", out, p.want)
	}
	frames := p.claims.BeaconsDuringJoin
	for _, n := range p.claims.ByKind {
		frames += n
	}
	return opStats{
		meterSamples: int64(len(p.fig3a.Samples) + len(p.fig3b.Samples)),
		txFrames:     int64(frames),
		spans:        p.spans[:],
	}, nil
}

func (p *paperEval) output() (paperOut, error) {
	var out paperOut
	if len(p.table.Rows) != len(out.Table1) {
		return out, fmt.Errorf("table 1 has %d rows, want %d", len(p.table.Rows), len(out.Table1))
	}
	for i, r := range p.table.Rows {
		out.Table1[i] = table1Out{r.Name, float64(r.EnergyPerPacket), float64(r.IdleCurrent), r.EnergyError()}
	}
	start, end, ok := p.fig3a.PhaseBounds("Tx")
	if !ok {
		return out, errors.New("fig3a has no Tx phase")
	}
	out.Fig3aJ = float64(p.fig3a.Energy)
	out.Fig3aSamples = len(p.fig3a.Samples)
	out.Fig3aTx = time.Duration(end - start)
	out.Fig3bJ = float64(p.fig3b.Energy)
	out.Fig4Crossover = p.fig4.CrossoverDCPS
	out.MACFrames = p.claims.MACLayerFrames
	out.HigherFrames = p.claims.HigherLayerFrames
	out.FourWayFrames = p.claims.FourWayFrames
	return out, nil
}

// density is one 10,000-device point of the density sweep at the density
// of the sweep's 100k-device point: medium and phy do almost all the work.
type density struct {
	cfg experiment.DensityConfig
	// want, when non-nil, holds the recorded counts for the default seed.
	want  *densityOut
	first *densityOut
	pts   []experiment.DensityPoint
}

// densityOut is the part of a density point checked against the record.
type densityOut struct{ Transmissions, Deliveries, Collisions int }

func densityConfig(seed uint64) experiment.DensityConfig {
	cfg := experiment.DefaultDensityConfig()
	cfg.Devices = []int{10000}
	cfg.Side = 316.23 // 0.1 devices/m², the 100k-device point's density
	cfg.Seed = seed
	return cfg
}

func newDensity(seed uint64) *density {
	d := &density{cfg: densityConfig(seed)}
	if seed == defaultSeed {
		want := recordedDensity
		d.want = &want
	}
	return d
}

func (d *density) op() error {
	var err error
	d.pts, err = experiment.RunDensitySweep(d.cfg)
	return err
}

func (d *density) check() (opStats, error) {
	if len(d.pts) != 1 {
		return opStats{}, fmt.Errorf("density sweep returned %d points, want 1", len(d.pts))
	}
	pt := d.pts[0]
	out := densityOut{pt.Transmissions, pt.Deliveries, pt.Collisions}
	if d.first == nil {
		d.first = &out
	}
	if out != *d.first {
		return opStats{}, fmt.Errorf("density point %+v differs from the first op's %+v", out, *d.first)
	}
	if d.want != nil && out != *d.want {
		return opStats{}, fmt.Errorf("density point %+v differs from the recorded %+v", out, *d.want)
	}
	return opStats{receptions: int64(pt.Deliveries + pt.Collisions)}, nil
}

// Fleet geometry: sensors sit in clusters around scanners on a grid, far
// enough apart that each beacon has about one receiver.
const (
	fleetSensors  = 1000
	fleetGrid     = 6  // scanners per side
	fleetPitch    = 40 // meters between scanners
	fleetSpread   = 4  // meters a sensor may sit from its scanner, per axis
	fleetPeriod   = time.Second
	fleetWarmUp   = 2 * time.Second
	fleetOpLength = time.Second
)

// sensorSpec is one fleet sensor's seed-derived input.
type sensorSpec struct {
	pos   wile.Position
	phase time.Duration
	seed  uint64
}

func scannerPos(i int) wile.Position {
	return wile.Position{X: float64(fleetPitch * (i % fleetGrid)), Y: float64(fleetPitch * (i / fleetGrid))}
}

// fleetLayout draws every sensor's position, wake phase and jitter seed.
func fleetLayout(seed uint64) []sensorSpec {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	specs := make([]sensorSpec, fleetSensors)
	for i := range specs {
		c := scannerPos(i % (fleetGrid * fleetGrid))
		specs[i] = sensorSpec{
			pos: wile.Position{
				X: c.X + fleetSpread*(2*rng.Float64()-1),
				Y: c.Y + fleetSpread*(2*rng.Float64()-1),
			},
			phase: time.Duration(rng.Int64N(int64(fleetPeriod))),
			seed:  rng.Uint64() | 1, // a zero seed would select the sensor's default
		}
	}
	return specs
}

// fleet is 1,000 Wi-LE sensors reporting every second to 36 scanners,
// through the full stack, with the medium and every sensor mirrored into
// one metrics registry.
type fleet struct {
	sched    *wile.Scheduler
	med      *wile.Medium
	sensors  []*wile.Sensor
	scanners []*wile.Scanner
	// want, when non-nil, holds the recorded totals after the first op for
	// the default seed.
	want *fleetOut
	ops  int

	txCounter, delCounter, collCounter, msgCounter, framesCounter *wile.MetricsCounter
	last                                                          fleetOut
}

// fleetOut is the fleet's running totals.
type fleetOut struct {
	Events, Transmissions, Deliveries, Collisions, Messages, Received, TxFrames int64
}

func newFleet(seed uint64) *fleet {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(6))
	reg := wile.NewRegistry()
	med.Observe(reg)
	f := &fleet{sched: sched, med: med}
	for i := 0; i < fleetGrid*fleetGrid; i++ {
		sc := wile.NewScanner(sched, med, wile.ScannerConfig{Name: fmt.Sprintf("scanner%02d", i), Position: scannerPos(i)})
		sc.Start()
		f.scanners = append(f.scanners, sc)
	}
	for i, spec := range fleetLayout(seed) {
		s := wile.NewSensor(sched, med, wile.SensorConfig{
			DeviceID: uint32(i + 1),
			Position: spec.pos,
			Period:   fleetPeriod,
			Seed:     spec.seed,
		})
		s.Observe(reg)
		sched.After(spec.phase, s.Run)
		f.sensors = append(f.sensors, s)
	}
	f.txCounter = reg.Counter("wile.medium_transmissions")
	f.delCounter = reg.Counter("wile.medium_deliveries")
	f.collCounter = reg.Counter("wile.medium_collisions")
	f.msgCounter = reg.Counter("wile.tx_messages")
	f.framesCounter = reg.Counter("mac.tx_frames")
	if seed == defaultSeed {
		want := recordedFleet
		f.want = &want
	}
	sched.RunFor(fleetWarmUp)
	f.last = f.totals()
	return f
}

func (f *fleet) op() error {
	f.sched.RunFor(fleetOpLength)
	return nil
}

func (f *fleet) totals() fleetOut {
	st := f.med.Stats
	out := fleetOut{
		Events:        int64(f.sched.Fired()),
		Transmissions: int64(st.Transmissions),
		Deliveries:    int64(st.Deliveries),
		Collisions:    int64(st.Collisions),
		TxFrames:      f.framesCounter.Value(),
	}
	for _, s := range f.sensors {
		out.Messages += int64(s.Stats.Messages)
	}
	for _, sc := range f.scanners {
		out.Received += int64(sc.Stats.Messages)
	}
	return out
}

func (f *fleet) check() (opStats, error) {
	f.ops++
	prev, cur := f.last, f.totals()
	f.last = cur
	tx, del, coll := f.txCounter.Value(), f.delCounter.Value(), f.collCounter.Value()
	if tx != cur.Transmissions || del != cur.Deliveries || coll != cur.Collisions {
		return opStats{}, fmt.Errorf("medium stats %d/%d/%d disagree with the wile.medium_* counters %d/%d/%d",
			cur.Transmissions, cur.Deliveries, cur.Collisions, tx, del, coll)
	}
	if n := f.msgCounter.Value(); n != cur.Messages {
		return opStats{}, fmt.Errorf("sensors sent %d messages but wile.tx_messages reads %d", cur.Messages, n)
	}
	if cur.Received <= prev.Received {
		return opStats{}, errors.New("no scanner received a message during the op")
	}
	if f.ops == 1 && f.want != nil && cur != *f.want {
		return opStats{}, fmt.Errorf("fleet totals %+v differ from the recorded %+v", cur, *f.want)
	}
	return opStats{
		events:     cur.Events - prev.Events,
		receptions: cur.Deliveries + cur.Collisions - prev.Deliveries - prev.Collisions,
		txFrames:   cur.TxFrames - prev.TxFrames,
		messages:   cur.Messages - prev.Messages,
	}, nil
}
