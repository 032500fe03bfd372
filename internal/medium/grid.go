package medium

import (
	"math"
	"slices"
)

// Spatial index for receiver culling (DESIGN.md §12).
//
// The medium buckets transceivers into a uniform grid over Position. A
// transmitter's interference radius r = Loss.Range(TxPower, minSens) — the
// distance at which its signal drops below the most sensitive attached
// floor — bounds every radio it could deliver to, collide with, or make
// busy, so a transmission only visits the grid cells its radius overlaps.
// Candidates are culled by squared distance against the radius, then
// exact-filtered by received power against minSens and sorted by attach
// order, making the resulting event schedule independent of bucketing:
// byte-identical to the all-pairs walk.

// cellKey addresses one grid bucket.
type cellKey struct{ x, y int32 }

// grid is a uniform spatial hash over transceiver positions.
type grid struct {
	// size is the cell edge in meters, fixed when the grid is built to the
	// largest interference radius of the population at that moment so a
	// typical query touches at most a 3×3 block. Radios attached later can
	// widen the radius; queries span as many cells as the radius needs, so
	// a stale edge costs cells visited, never correctness.
	size  float64
	cells map[cellKey][]*Transceiver
	built bool
}

// keyFor buckets a position.
func (g *grid) keyFor(p Position) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / g.size)),
		y: int32(math.Floor(p.Y / g.size)),
	}
}

// insert adds t to the bucket for its current position.
func (g *grid) insert(t *Transceiver) {
	t.cell = g.keyFor(t.Pos)
	g.cells[t.cell] = append(g.cells[t.cell], t)
}

// move re-buckets t for a new position.
func (g *grid) move(t *Transceiver, p Position) {
	next := g.keyFor(p)
	if next == t.cell {
		return
	}
	bucket := g.cells[t.cell]
	for i, other := range bucket {
		if other == t {
			bucket[i] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			g.cells[t.cell] = bucket[:len(bucket)-1]
			break
		}
	}
	t.cell = next
	g.cells[next] = append(g.cells[next], t)
}

// buildGrid indexes the attached population. Deferred to the first culled
// transmission so attachment order and cost stay unchanged for small
// topologies that never transmit.
func (m *Medium) buildGrid() {
	edge := m.Loss.Range(m.maxTx, m.minSens)
	if edge < 1 || math.IsInf(edge, 1) || math.IsNaN(edge) {
		edge = 1
	}
	m.grid.size = edge
	m.grid.cells = make(map[cellKey][]*Transceiver, len(m.nodes))
	for _, t := range m.nodes {
		m.grid.insert(t)
	}
	m.grid.built = true
}

// gridCandidates reports every radio other than t whose received power from
// t clears the medium-wide sensitivity floor, in attach order. The returned
// slice is the medium's scratch buffer, valid until the next query.
func (m *Medium) gridCandidates(t *Transceiver, radius float64) []candidate {
	m.scratch = m.scratch[:0]
	// Received power falls monotonically with distance, so every radio that
	// clears minSens lies within radius. Reject the rest by squared distance
	// before paying for the RSSI's logarithm; the relative slack dwarfs the
	// rounding in Range and RSSI, so the exact filter below still decides
	// every radio near the edge.
	reach := radius * (1 + 1e-9)
	reach2 := reach * reach
	x0 := int32(math.Floor((t.Pos.X - radius) / m.grid.size))
	x1 := int32(math.Floor((t.Pos.X + radius) / m.grid.size))
	y0 := int32(math.Floor((t.Pos.Y - radius) / m.grid.size))
	y1 := int32(math.Floor((t.Pos.Y + radius) / m.grid.size))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, rcv := range m.grid.cells[cellKey{x: x, y: y}] {
				if rcv == t {
					continue
				}
				dx, dy := rcv.Pos.X-t.Pos.X, rcv.Pos.Y-t.Pos.Y
				if dx*dx+dy*dy > reach2 {
					continue
				}
				rssi := m.rssiAt(t, rcv)
				if rssi < m.minSens {
					continue
				}
				m.scratch = append(m.scratch, candidate{t: rcv, rssi: rssi})
			}
		}
	}
	// Attach order is the scheduling contract: delivery events must enqueue
	// in the same order the all-pairs walk would, or traces diverge.
	slices.SortFunc(m.scratch, func(a, b candidate) int { return a.t.idx - b.t.idx })
	return m.scratch
}
