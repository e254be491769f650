package main

import (
	"io"
	"math"
	"slices"
	"testing"
	"time"
)

// TestStackMatchesFacade pins that the traced chat run measures the
// program users call: for the same seed, the probed internal stacks and
// waggle.NewSwarm deliver the same messages after the same instants and
// leave every robot at the same bits.
func TestStackMatchesFacade(t *testing.T) {
	spec := chatSpec{n: 8, k: 4, placements: 2}
	for _, seed := range []int64{1, 5} {
		e := &env{seed: seed, seconds: time.Second, work: t.TempDir(), out: io.Discard, tr: newTracer(true)}
		places := chatPlacements(seed, spec)
		rep := newReport()

		swarms, err := newChatSwarms(places, seed)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]chatDriver, len(swarms))
		for k, s := range swarms {
			ds[k] = facadeDriver{s}
		}
		want, err := chatRun(e, rep, ds, newChatGen(seed, spec), 0, 4)
		if err != nil {
			t.Fatal(err)
		}

		p := newSimProbe(e.tr, spec.placements*spec.n)
		stacks, err := newChatStacks(places, seed, p)
		if err != nil {
			t.Fatal(err)
		}
		for k, sd := range stacks {
			ds[k] = sd
		}
		got, err := chatRun(e, rep, ds, newChatGen(seed, spec), 0, 4)
		if err != nil {
			t.Fatal(err)
		}

		if rep.failed != 0 {
			t.Fatalf("seed %d: %d deliveries failed their checks", seed, rep.failed)
		}
		for r := range want.rounds {
			if !slices.Equal(want.rounds[r], got.rounds[r]) {
				t.Errorf("seed %d round %d: stack %v, facade %v", seed, r, got.rounds[r], want.rounds[r])
			}
		}
		for k, s := range swarms {
			w := stacks[k].net.World()
			if s.Time() != w.Time() {
				t.Errorf("seed %d placement %d: stack at instant %d, facade at %d", seed, k, w.Time(), s.Time())
			}
			fp, sp := s.Positions(), w.Positions()
			for i := range fp {
				if math.Float64bits(fp[i].X) != math.Float64bits(sp[i].X) || math.Float64bits(fp[i].Y) != math.Float64bits(sp[i].Y) {
					t.Errorf("seed %d placement %d: robot %d at %v in the stack, %v in the facade", seed, k, i, sp[i], fp[i])
					break
				}
			}
		}
		if p.violations != 0 {
			t.Errorf("seed %d: %d instants whose phases did not tile the step", seed, p.violations)
		}
	}
}
