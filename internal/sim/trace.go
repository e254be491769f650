package sim

import (
	"fmt"
	"io"

	"waggle/internal/geom"
)

// Move is one robot's displacement at one instant.
type Move struct {
	Time  int
	Robot int
	From  geom.Point
	To    geom.Point
}

// Dist returns the distance covered by the move.
func (m Move) Dist() float64 { return m.From.Dist(m.To) }

// StepRecord summarises one instant: who was active and the resulting
// configuration.
type StepRecord struct {
	Time      int
	Active    []int
	Positions []geom.Point
}

// Trace records a full execution for analysis: the initial
// configuration, every move, and every per-instant configuration. It is
// omniscient — protocols never read it; tests, figure generators and
// benchmarks do.
type Trace struct {
	initial []geom.Point
	moves   []Move
	steps   []StepRecord
}

// NewTrace starts a trace from the given initial configuration.
func NewTrace(initial []geom.Point) *Trace {
	init := make([]geom.Point, len(initial))
	copy(init, initial)
	return &Trace{initial: init}
}

// add folds a closed record into the trace: every position write as a
// move and, for an instant, its activation set and configuration.
func (tr *Trace) add(rec *Record, positions []geom.Point) {
	tr.moves = append(tr.moves, rec.Moves...)
	if !rec.InStep {
		return
	}
	act := make([]int, len(rec.Active))
	copy(act, rec.Active)
	pos := make([]geom.Point, len(positions))
	copy(pos, positions)
	tr.steps = append(tr.steps, StepRecord{Time: rec.Time, Active: act, Positions: pos})
}

// Initial returns the initial configuration.
func (tr *Trace) Initial() []geom.Point {
	out := make([]geom.Point, len(tr.initial))
	copy(out, tr.initial)
	return out
}

// Moves returns all recorded moves in order.
func (tr *Trace) Moves() []Move {
	out := make([]Move, len(tr.moves))
	copy(out, tr.moves)
	return out
}

// Steps returns the per-instant records in order.
func (tr *Trace) Steps() []StepRecord {
	out := make([]StepRecord, len(tr.steps))
	copy(out, tr.steps)
	return out
}

// MovesBy returns the moves of one robot in order.
func (tr *Trace) MovesBy(robot int) []Move {
	var out []Move
	for _, m := range tr.moves {
		if m.Robot == robot {
			out = append(out, m)
		}
	}
	return out
}

// TotalDistance returns the total distance covered by one robot — the
// energy proxy used by the silence experiments (C5 in DESIGN.md).
func (tr *Trace) TotalDistance(robot int) float64 {
	var sum float64
	for _, m := range tr.moves {
		if m.Robot == robot {
			sum += m.Dist()
		}
	}
	return sum
}

// NonTrivialMoves returns how many moves of the robot covered more than
// the given threshold distance.
func (tr *Trace) NonTrivialMoves(robot int, threshold float64) int {
	count := 0
	for _, m := range tr.moves {
		if m.Robot == robot && m.Dist() > threshold {
			count++
		}
	}
	return count
}

// MinPairwiseDistance returns the smallest distance between any two
// robots over the whole recorded execution — the collision-avoidance
// metric (experiment C7).
func (tr *Trace) MinPairwiseDistance() float64 {
	best := minPairwise(tr.initial)
	for _, s := range tr.steps {
		if d := minPairwise(s.Positions); d < best {
			best = d
		}
	}
	return best
}

func minPairwise(pts []geom.Point) float64 {
	best := -1.0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best
}

// WriteCSV streams the trace's per-instant configurations as CSV:
// time,robot,x,y — one row per robot per recorded instant, preceded by
// the initial configuration at time -1. The format feeds external
// plotting tools.
func (tr *Trace) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time,robot,x,y\n"); err != nil {
		return err
	}
	writeRow := func(t, robot int, p geom.Point) error {
		_, err := fmt.Fprintf(w, "%d,%d,%g,%g\n", t, robot, p.X, p.Y)
		return err
	}
	for i, p := range tr.initial {
		if err := writeRow(-1, i, p); err != nil {
			return err
		}
	}
	for _, s := range tr.steps {
		for i, p := range s.Positions {
			if err := writeRow(s.Time, i, p); err != nil {
				return err
			}
		}
	}
	return nil
}
