package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// The ckpt workload checkpoints a swarm too large for the protocols to
// step (the facade defaults at uniform density, side sqrt(n)*10): between
// saves ckptSends seeded, recorded Sends change a few robots' state, the
// sparse regime delta chains are built for. The chain rebases every 64
// deltas, so a run cycles through every chain length.
const (
	ckptN     = 100_000
	ckptSends = 16
)

// ckptRig is a large swarm with a delta checkpoint writer.
type ckptRig struct {
	s     *waggle.Swarm
	cw    *waggle.CheckpointWriter
	path  string
	rng   *rand.Rand
	sends int // recorded sends so far
}

// newCkptRig builds the swarm from the seed and writes its base frame.
func newCkptRig(e *env, n int, path string) (*ckptRig, error) {
	rng := rand.New(rand.NewSource(e.seed))
	side := math.Sqrt(float64(n)) * 10
	pts := make([]waggle.Point, n)
	for i := range pts {
		pts[i] = waggle.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	s, err := waggle.NewSwarm(pts, waggle.WithSeed(e.seed))
	if err != nil {
		return nil, err
	}
	cw, err := s.NewCheckpointWriter(path, waggle.CodecDelta)
	if err != nil {
		return nil, err
	}
	if err := cw.Save(); err != nil {
		return nil, err
	}
	return &ckptRig{s: s, cw: cw, path: path, rng: rand.New(rand.NewSource(e.seed ^ 0x636B7074))}, nil
}

// ckptSetup builds the rig (see env.setup) and keeps the last one.
func ckptSetup(e *env, rep *report) (*ckptRig, error) {
	var r *ckptRig
	err := e.setup(rep, func(i int) error {
		var err error
		r, err = newCkptRig(e, ckptSize(e), filepath.Join(e.work, fmt.Sprintf("save-%d.wck", i)))
		return err
	}, func() error { return os.Remove(r.path) })
	return r, err
}

// interval makes the recorded sends between two saves.
func (r *ckptRig) interval() error {
	n := r.s.N()
	for k := 0; k < ckptSends; k++ {
		from := r.rng.Intn(n)
		to := r.rng.Intn(n - 1)
		if to >= from {
			to++
		}
		p := make([]byte, 2+r.rng.Intn(3))
		r.rng.Read(p)
		if err := r.s.Send(from, to, p); err != nil {
			return err
		}
		r.sends++
	}
	return nil
}

// verifyRestored checks a restored swarm against the live one: the same
// instant, the same positions, and every recorded send in its log.
func (r *ckptRig) verifyRestored(e *env, rep *report, got *waggle.Swarm, ck *waggle.Checkpoint) {
	if got.Time() != r.s.Time() {
		rep.fail(e, "restored swarm at instant %d, live at %d", got.Time(), r.s.Time())
	}
	live, restored := r.s.Positions(), got.Positions()
	for i := range live {
		if live[i] != restored[i] {
			rep.fail(e, "restored robot %d at %v, live at %v", i, restored[i], live[i])
			break
		}
	}
	sends := 0
	for _, in := range ck.Inputs {
		if in.Op == ckpt.OpSend {
			sends++
		}
	}
	if sends != r.sends {
		rep.fail(e, "restored log holds %d sends, the run recorded %d", sends, r.sends)
	}
}

// savePassResult is what one pass of saves measured.
type savePassResult struct {
	latMS                []float64
	units                []workUnit
	total, baseNs        int64 // all saves, the base saves
	bases, deltas        int
	deltaBytes, chainSum int
	// deltaMS times every delta save; encodeMS and writeMS the shadow
	// encode and append of the shadowed ones.
	deltaMS, encodeMS, writeMS []float64
	shadowBytes                int
}

// maxShadowed bounds the delta saves a traced pass shadows: each costs
// two full captures of the swarm.
const maxShadowed = 100

// savePass times Save after each interval, until the window elapses
// (window > 0) or for exactly `count` intervals. With a tracer it
// shadows up to maxShadowed evenly spaced delta saves outside the timed
// save: the delta between full captures taken before the interval and
// after the save (wire.ComputeDelta) is encoded with
// wire.EncodeDeltaFrame and appended durably to a scratch file. The
// medians of those against the median delta save split it into encode,
// write and the in-memory remainder.
func savePass(e *env, rep *report, r *ckptRig, tr *tracer, window time.Duration, count int) (*savePassResult, error) {
	res := &savePassResult{}
	every := max(1, count/maxShadowed)
	shadow := filepath.Join(e.work, "shadow.wcd")
	deadline := time.Now().Add(window)
	for i := 0; window > 0 && time.Now().Before(deadline) || window <= 0 && i < count; i++ {
		rep.attempted++
		var prev *waggle.Checkpoint
		if tr != nil && i%every == 0 {
			var err error
			if prev, err = r.s.Checkpoint(); err != nil {
				return nil, err
			}
		}
		if err := r.interval(); err != nil {
			return nil, err
		}
		var start int64
		if tr != nil {
			start = tr.now()
		}
		d, err := timeIt(r.cw.Save)
		if err != nil {
			return nil, fmt.Errorf("save %d: %w", i, err)
		}
		ms := float64(d) / 1e6
		res.latMS = append(res.latMS, ms)
		res.units = append(res.units, workUnit{ops: 1, ns: int64(d)})
		res.total += int64(d)
		delta := r.cw.LastSaveWasDelta()
		if delta {
			res.deltas++
			res.deltaMS = append(res.deltaMS, ms)
			res.deltaBytes += r.cw.LastSaveBytes()
			res.chainSum += r.cw.ChainLen()
		} else {
			res.bases++
			res.baseNs += int64(d)
		}
		if tr == nil {
			continue
		}
		parent := tr.add(span{Name: "ckpt.save", Start: start, End: tr.now(), Parent: -1, ID: int64(i)})
		if prev == nil || !delta {
			continue
		}
		cur, err := r.s.Checkpoint()
		if err != nil {
			return nil, err
		}
		if err := res.shadowDelta(tr, parent, prev, cur, shadow); err != nil {
			return nil, err
		}
		// Later saves must not pay for collecting the captures.
		runtime.GC()
	}
	return res, nil
}

// shadowDelta re-encodes the delta from prev to cur and appends it to a
// scratch file the way the writer appends (one write, then fsync),
// timing both.
func (res *savePassResult) shadowDelta(tr *tracer, parent int, prev, cur *waggle.Checkpoint, path string) error {
	d, err := wire.ComputeDelta(prev, cur)
	if err != nil {
		return err
	}
	t0 := tr.now()
	frame, _, err := wire.EncodeDeltaFrame(d, &prev.State, 0)
	if err != nil {
		return err
	}
	t1 := tr.now()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t2 := tr.now()
	tr.add(span{Name: "shadow.encode", Start: t0, End: t1, Parent: parent})
	tr.add(span{Name: "shadow.write", Start: t1, End: t2, Parent: parent})
	res.encodeMS = append(res.encodeMS, float64(t1-t0)/1e6)
	res.writeMS = append(res.writeMS, float64(t2-t1)/1e6)
	res.shadowBytes += len(frame)
	return nil
}

// restoreCheck loads and restores the writer's file and verifies it.
func restoreCheck(e *env, rep *report, r *ckptRig) error {
	ck, err := waggle.LoadCheckpoint(r.path)
	if err != nil {
		return err
	}
	res, err := waggle.Restore(ck)
	if err != nil {
		return err
	}
	r.verifyRestored(e, rep, res.Swarm, ck)
	return nil
}

// runCkptSave times delta saves (and the rebases every 64 of them).
func runCkptSave(e *env) (*report, error) {
	rep := newReport()
	r, err := ckptSetup(e, rep)
	if err != nil {
		return nil, err
	}
	window := e.seconds
	if e.tr != nil {
		window /= 2
	}
	base, err := savePass(e, rep, r, nil, window, 0)
	if err != nil {
		return nil, err
	}
	if err := restoreCheck(e, rep, r); err != nil {
		return nil, err
	}
	e.logf("%s", pctLine("save", base.latMS))
	e.logf("%d delta saves (%.0f B, chain %.1f deep on average), %d base saves",
		base.deltas, ratio(float64(base.deltaBytes), float64(base.deltas)), ratio(float64(base.chainSum), float64(base.deltas)), base.bases)
	if e.tr == nil {
		rep.latMS, rep.units = base.latMS, base.units
		return rep, nil
	}

	os.Remove(r.path)
	r = nil
	runtime.GC()
	if r, err = newCkptRig(e, ckptSize(e), filepath.Join(e.work, "save-traced.wck")); err != nil {
		return nil, err
	}
	traced, err := savePass(e, rep, r, e.tr, 0, len(base.latMS))
	if err != nil {
		return nil, err
	}
	if err := restoreCheck(e, rep, r); err != nil {
		return nil, err
	}
	m := rep.layer
	m["trace.overhead_pct"] = 100 * (ratio(median(traced.latMS), median(base.latMS)) - 1)
	m["ckpt.base_save_pct"] = share(float64(traced.baseNs), float64(traced.total))
	save, encode, write := median(traced.deltaMS), median(traced.encodeMS), median(traced.writeMS)
	m["wire.encode_pct"] = share(encode, save)
	m["ckpt.write_pct"] = share(write, save)
	m["ckpt.capture_pct"] = share(save-encode-write, save)
	m["ckpt.delta_bytes"] = ratio(float64(traced.deltaBytes), float64(traced.deltas))
	m["ckpt.chain_len"] = ratio(float64(traced.chainSum), float64(traced.deltas))
	if fi, err := os.Stat(r.path); err == nil {
		m["ckpt.file_bytes"] = float64(fi.Size())
	}
	e.logf("delta save p50 %.3f ms = capture+apply %.3f + encode %.3f + append+fsync %.3f ms (shadow p50s over %d saves; shadow frames %.0f B, written %.0f B)",
		save, save-encode-write, encode, write, len(traced.encodeMS),
		ratio(float64(traced.shadowBytes), float64(len(traced.encodeMS))), m["ckpt.delta_bytes"])
	e.logf("trace overhead %.1f%% (p50 save, %d saves each)", m["trace.overhead_pct"], len(base.latMS))
	return rep, nil
}

func ckptSize(e *env) int {
	if e.smoke {
		return 2000
	}
	return ckptN
}
