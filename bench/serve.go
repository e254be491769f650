package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"waggle/internal/figures"
	"waggle/internal/obs"
	"waggle/internal/serve"
	"waggle/internal/wire"
)

// The serve workload reaches the daemon the way its users do: an
// in-process serve.Server behind obs.ServeWith on a loopback port, 200
// sessions of 8 robots each holding one queued message, every 4th
// session traced, and an open loop of seeded Poisson arrivals over
// uniformly chosen sessions. One generator goroutine feeds two
// connections; each op is timed from the moment it was due.
const (
	serveSessions  = 200
	serveRobots    = 8
	serveStepSize  = 20 // instants per step op
	serveConns     = 2
	serveTraceEach = 4 // every 4th session is created with trace: true
	serveIdleAfter = 2 * time.Second
	serveEvictScan = 250 * time.Millisecond
)

// serveRate is the offered load in ops per second: 0.6 ops per session
// per second, so about a quarter of the ops find their session evicted
// after the 2 s idle limit and pay a resume (load and replay its chain).
// It is about a sixth of what a 2-core host sustains (about 750 ops/s);
// at higher shares the median follows the rest of the host's load more
// than the daemon.
const serveRate = 120

// Op kinds and the mix: 80% step, 10% send, 5% observe, 5% spectate.
const (
	opStep = iota
	opSend
	opObserve
	opSpectate
)

var opNames = [...]string{"step", "send", "observe", "spectate"}

func opKind(u float64) int {
	switch {
	case u < 0.80:
		return opStep
	case u < 0.90:
		return opSend
	case u < 0.95:
		return opObserve
	default:
		return opSpectate
	}
}

// serveOp is one scheduled request and what happened to it. Each op is
// written by the generator, then by one connection worker, and read
// after both have finished.
type serveOp struct {
	id, kind, sess int
	from, to       int
	payload        []byte
	at             time.Duration // due this long after the phase starts
	due            time.Time

	pushed, sent, done time.Time
	ok                 bool
	gapIdle            time.Duration // since the session's previous op completed
	age                int64         // the session's acknowledged steps before this op
	bytes              int           // response body size
}

// serveLoad is one phase: a fresh daemon, its sessions and the ops run
// against it.
type serveLoad struct {
	e        *env
	rep      *report
	dir      string
	srv      *serve.Server
	stopHTTP func() error
	base     string
	clients  [serveConns]*http.Client
	timing   *handlerTiming // traced phase only

	sessions  int
	ids       []string
	traced    []bool
	acked     []atomic.Int64 // acknowledged step ops per session
	lastDone  []atomic.Int64 // unix ns of the session's last completed op
	specOff   []atomic.Int64 // each session's spectator offset
	spectated []spectateReply
	specMu    sync.Mutex
}

// spectateReply is one spectate reply, kept to check against the
// stream file after the phase.
type spectateReply struct {
	sess int
	recs []serve.SpectateRecord
}

// handlerTiming wraps Server.Handler() to time each request inside the
// daemon. Requests carry their op id in a header.
type handlerTiming struct {
	tr         *tracer
	start, end []atomic.Int64
}

func (h *handlerTiming) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		start := h.tr.now()
		next.ServeHTTP(w, r)
		if err == nil && id >= 0 && id < len(h.start) {
			h.start[id].Store(start)
			h.end[id].Store(h.tr.now())
		}
	})
}

func (h *handlerTiming) ns(id int) int64 { return h.end[id].Load() - h.start[id].Load() }

// startLoad starts a daemon in dir and creates the sessions, each with
// one queued message.
func startLoad(e *env, rep *report, dir string, sessions, robots int, timing *handlerTiming) (*serveLoad, error) {
	srv, err := serve.New(serve.Options{
		Dir:       dir,
		Stream:    true,
		IdleAfter: serveIdleAfter,
		EvictScan: serveEvictScan,
	}, obs.New(256))
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if timing != nil {
		h = timing.wrap(h)
	}
	addr, stop, err := obs.ServeWith("127.0.0.1:0", h, obs.ServeOptions{})
	if err != nil {
		srv.Abort()
		return nil, err
	}
	l := &serveLoad{e: e, rep: rep, dir: dir, srv: srv, stopHTTP: stop, base: "http://" + addr.String(), timing: timing,
		sessions: sessions, ids: make([]string, sessions), traced: make([]bool, sessions),
		acked: make([]atomic.Int64, sessions), lastDone: make([]atomic.Int64, sessions), specOff: make([]atomic.Int64, sessions)}
	for c := range l.clients {
		l.clients[c] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		}
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x73657276))
	reqs := make([]serve.CreateRequest, sessions)
	sends := make([]serve.SendRequest, sessions)
	for i := range reqs {
		pts := figures.RandomConfiguration(rng, robots, 12*float64(robots), 8)
		reqs[i] = serve.CreateRequest{Positions: make([][2]float64, robots), Seed: e.seed*1000 + int64(i) + 1, Trace: i%serveTraceEach == 0}
		for k, p := range pts {
			reqs[i].Positions[k] = [2]float64{p.X, p.Y}
		}
		l.traced[i] = reqs[i].Trace
		sends[i] = serve.SendRequest{From: 0, To: 1 + rng.Intn(robots-1), Payload: []byte{byte(i), byte(i >> 8), 'h', 'i'}}
	}
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < sessions; i += serveConns {
				var resp serve.CreateResponse
				if _, err := l.call(c, -1, "POST", "/v1/sessions", reqs[i], http.StatusCreated, &resp); err != nil {
					errs[c] = fmt.Errorf("create session %d: %w", i, err)
					return
				}
				l.ids[i] = resp.ID
				if _, err := l.call(c, -1, "POST", "/v1/sessions/"+resp.ID+"/send", sends[i], http.StatusAccepted, nil); err != nil {
					errs[c] = fmt.Errorf("send to session %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	now := time.Now().UnixNano()
	for i := range l.lastDone {
		l.lastDone[i].Store(now)
		l.specOff[i].Store(-1)
	}
	for _, err := range errs {
		if err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

// call issues one request on connection c and decodes the reply into
// out (if non-nil). It returns the reply's size.
func (l *serveLoad) call(c, opID int, method, path string, body any, want int, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if opID >= 0 {
		req.Header.Set("X-Bench-Op", strconv.Itoa(opID))
	}
	resp, err := l.clients[c].Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// schedule draws the phase's ops from the seed: Poisson arrivals at the
// given rate for the window, uniform sessions, the op mix above.
func schedule(seed int64, rate float64, window time.Duration, sessions, robots int) []serveOp {
	rng := rand.New(rand.NewSource(seed ^ 0x6f707321))
	var ops []serveOp
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		if at >= window.Seconds() {
			return ops
		}
		op := serveOp{id: len(ops), kind: opKind(rng.Float64()), sess: rng.Intn(sessions),
			at: time.Duration(at * float64(time.Second))}
		if op.kind == opSend {
			op.from = rng.Intn(robots)
			op.to = (op.from + 1 + rng.Intn(robots-1)) % robots
			op.payload = make([]byte, 4)
			rng.Read(op.payload)
		}
		ops = append(ops, op)
	}
}

// run plays the ops against the daemon: the generator sleeps until each
// op is due and queues it; serveConns workers take queued ops in order,
// each over its own connection.
func (l *serveLoad) run(ops []serveOp) time.Time {
	start := time.Now()
	for i := range ops {
		ops[i].due = start.Add(ops[i].at)
	}
	// Sized to every op of the phase, so the generator never blocks: the
	// loop stays open however far the daemon falls behind.
	queue := make(chan *serveOp, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := range queue {
				l.do(c, op)
			}
		}(c)
	}
	for i := range ops {
		op := &ops[i]
		if d := time.Until(op.due); d > 0 {
			time.Sleep(d)
		}
		op.pushed = time.Now()
		queue <- op
	}
	close(queue)
	wg.Wait()
	return start
}

// do runs one op on connection c.
func (l *serveLoad) do(c int, op *serveOp) {
	id := l.ids[op.sess]
	op.sent = time.Now()
	op.gapIdle = op.sent.Sub(time.Unix(0, l.lastDone[op.sess].Load()))
	op.age = l.acked[op.sess].Load()
	var err error
	switch op.kind {
	case opStep:
		var resp serve.StepResponse
		op.bytes, err = l.call(c, op.id, "POST", "/v1/sessions/"+id+"/step", serve.StepRequest{Steps: serveStepSize}, http.StatusOK, &resp)
		if err == nil {
			l.acked[op.sess].Add(1)
		}
	case opSend:
		op.bytes, err = l.call(c, op.id, "POST", "/v1/sessions/"+id+"/send",
			serve.SendRequest{From: op.from, To: op.to, Payload: op.payload}, http.StatusAccepted, nil)
	case opObserve:
		op.bytes, err = l.call(c, op.id, "GET", "/v1/sessions/"+id+"/observe", nil, http.StatusOK, nil)
	case opSpectate:
		err = l.spectate(c, op)
	}
	op.done = time.Now()
	l.lastDone[op.sess].Store(op.done.UnixNano())
	if err != nil {
		l.rep.fail(l.e, "op %d (%s): %v", op.id, opNames[op.kind], err)
		return
	}
	op.ok = true
}

// spectate reads the session's stream from its spectator's last offset,
// with no wait, and checks that the records chain from that offset.
func (l *serveLoad) spectate(c int, op *serveOp) error {
	from := l.specOff[op.sess].Load()
	var resp serve.SpectateResponse
	n, err := l.call(c, op.id, "GET", "/v1/sessions/"+l.ids[op.sess]+"/spectate?offset="+strconv.FormatInt(from, 10), nil, http.StatusOK, &resp)
	op.bytes = n
	if err != nil {
		return err
	}
	next := from
	for k, rec := range resp.Records {
		if (k > 0 || from >= 0) && rec.Offset != next {
			return fmt.Errorf("spectate record %d at offset %d, want %d", k, rec.Offset, next)
		}
		next = rec.Next
	}
	if len(resp.Records) > 0 && resp.NextOffset != next {
		return fmt.Errorf("spectate next_offset %d, last record ends at %d", resp.NextOffset, next)
	}
	l.specOff[op.sess].Store(resp.NextOffset)
	if len(resp.Records) > 0 {
		l.specMu.Lock()
		l.spectated = append(l.spectated, spectateReply{sess: op.sess, recs: resp.Records})
		l.specMu.Unlock()
	}
	return nil
}

// verify checks, after the phase, that each session's clock is the sum
// of its acknowledged steps and that every spectated record decodes
// from the stream file with wire.TailStream.
func (l *serveLoad) verify() error {
	for i, id := range l.ids {
		var obsResp serve.ObserveResponse
		if _, err := l.call(0, -1, "GET", "/v1/sessions/"+id+"/observe", nil, http.StatusOK, &obsResp); err != nil {
			return err
		}
		if want := int(l.acked[i].Load()) * serveStepSize; obsResp.Time != want {
			l.rep.fail(l.e, "session %d at instant %d, its acknowledged steps sum to %d", i, obsResp.Time, want)
		}
	}
	files := map[int][]byte{}
	for _, sp := range l.spectated {
		data, ok := files[sp.sess]
		if !ok {
			var err error
			if data, err = os.ReadFile(filepath.Join(l.dir, l.ids[sp.sess]+".wstream")); err != nil {
				return err
			}
			files[sp.sess] = data
		}
		recs, _, _, err := wire.TailStream(data, sp.recs[0].Offset, len(sp.recs))
		if err != nil || len(recs) != len(sp.recs) {
			l.rep.fail(l.e, "session %d: stream tail from %d decodes to %d records (%v), spectate returned %d",
				sp.sess, sp.recs[0].Offset, len(recs), err, len(sp.recs))
			continue
		}
		for k, rec := range recs {
			got := sp.recs[k]
			if rec.Kind != got.Kind || rec.Offset != got.Offset || rec.Next != got.Next || rec.T != got.T {
				l.rep.fail(l.e, "session %d: spectated record at %d (%s t=%d) is %s t=%d in the file",
					sp.sess, got.Offset, got.Kind, got.T, rec.Kind, rec.T)
				break
			}
		}
	}
	return nil
}

// counters reads the daemon's own counters from /metrics.json.
func (l *serveLoad) counters() (map[string]int64, error) {
	var snap obs.Snapshot
	if _, err := l.call(0, -1, "GET", "/metrics.json", nil, http.StatusOK, &snap); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, name := range []string{"resumes", "evictions", "checkpoint_bytes", "throttled", "shed", "deadline_expired", "steps", "sends"} {
		out[name], _ = snap.CounterValue("waggle_serve_" + name + "_total")
	}
	return out, nil
}

// close drains the daemon (checkpointing every live session), stops the
// listener and removes the phase's directory.
func (l *serveLoad) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if stopErr := l.stopHTTP(); err == nil {
		err = stopErr
	}
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
	if rmErr := os.RemoveAll(l.dir); err == nil {
		err = rmErr
	}
	return err
}

// servePhase is what one phase measured.
type servePhase struct {
	ops       []serveOp
	start     time.Time
	latMS     []float64 // successful ops, due to done
	counters  map[string]int64
	lastDone  time.Time
	remaining int // ops not done when the window closed
}

// playPhase runs one phase on l and verifies it.
func playPhase(e *env, rep *report, l *serveLoad, rate float64, window time.Duration, robots int) (*servePhase, error) {
	ops := schedule(e.seed, rate, window, l.sessions, robots)
	if l.timing != nil {
		l.timing.start = make([]atomic.Int64, len(ops))
		l.timing.end = make([]atomic.Int64, len(ops))
	}
	ph := &servePhase{ops: ops}
	ph.start = l.run(ops)
	closeAt := ph.start.Add(window)
	for i := range ops {
		op := &ops[i]
		rep.attempted++
		if op.done.After(ph.lastDone) {
			ph.lastDone = op.done
		}
		if op.done.After(closeAt) {
			ph.remaining++
		}
		if op.ok {
			ph.latMS = append(ph.latMS, float64(op.done.Sub(op.due))/1e6)
		}
	}
	// The counters first: verify observes every session, resuming the
	// evicted ones.
	var err error
	if ph.counters, err = l.counters(); err != nil {
		return nil, err
	}
	if err := l.verify(); err != nil {
		return nil, err
	}
	var late []float64
	for _, op := range ops {
		late = append(late, float64(op.pushed.Sub(op.due))/1e6)
	}
	e.logf("%d ops at %.0f/s over %s: %d still outstanding when the window closed", len(ops), rate, window, ph.remaining)
	e.logf("%s", pctLine("latency from due", ph.latMS))
	e.logf("%s", pctLine("generator lateness", late))
	for k, name := range opNames {
		var lat []float64
		for _, op := range ops {
			if op.kind == k && op.ok {
				lat = append(lat, float64(op.done.Sub(op.due))/1e6)
			}
		}
		e.logf("  %s", pctLine(name, lat))
	}
	c := ph.counters
	e.logf("daemon: %d resumes, %d evictions, %d checkpoint bytes, %d throttled, %d shed, %d deadline-expired",
		c["resumes"], c["evictions"], c["checkpoint_bytes"], c["throttled"], c["shed"], c["deadline_expired"])
	return ph, nil
}

// units is the whole phase as one unit: the completed ops over the time
// from its start to its last completion. In an open loop that is the
// offered rate unless the daemon falls behind; slicing it would only
// measure the Poisson arrivals.
func (ph *servePhase) units() []workUnit {
	ok := 0
	for _, op := range ph.ops {
		if op.ok {
			ok++
		}
	}
	return []workUnit{{ops: ok, ns: int64(ph.lastDone.Sub(ph.start))}}
}

// runServe measures the daemon at serveRate. The traced run repeats the
// phase on a fresh daemon whose handler is wrapped in a timing
// middleware.
func runServe(e *env) (*report, error) {
	sessions, robots, rate := serveSessions, serveRobots, float64(serveRate)
	if e.smoke {
		sessions, robots, rate = 8, 4, 40
	}
	rep := newReport()
	var l *serveLoad
	err := e.setup(rep, func(i int) error {
		var err error
		l, err = startLoad(e, rep, filepath.Join(e.work, fmt.Sprintf("serve-%d", i)), sessions, robots, nil)
		return err
	}, func() error { return l.close() })
	if err != nil {
		return nil, err
	}
	window := e.seconds
	if e.tr != nil {
		window /= 2
	}
	base, err := playPhase(e, rep, l, rate, window, robots)
	if err != nil {
		l.close()
		return nil, err
	}
	if err := l.close(); err != nil {
		return nil, err
	}
	if e.tr == nil {
		rep.latMS, rep.units = base.latMS, base.units()
		return rep, nil
	}

	timing := &handlerTiming{tr: e.tr}
	if l, err = startLoad(e, rep, filepath.Join(e.work, "serve-traced"), sessions, robots, timing); err != nil {
		return nil, err
	}
	traced, err := playPhase(e, rep, l, rate, window, robots)
	if err != nil {
		l.close()
		return nil, err
	}
	if err := l.close(); err != nil {
		return nil, err
	}
	serveLayers(e, rep.layer, l, traced, timing)
	rep.layer["trace.overhead_pct"] = 100 * (ratio(median(traced.latMS), median(base.latMS)) - 1)
	e.logf("trace overhead %.1f%% (p50 latency)", rep.layer["trace.overhead_pct"])
	return rep, nil
}

// serveLayers splits the traced phase's latency: generator lateness,
// the wait for a free connection, HTTP and the handler inside the
// daemon, by op kind, idle gap, tracing and session age.
func serveLayers(e *env, m map[string]float64, l *serveLoad, ph *servePhase, h *handlerTiming) {
	var total, late, wait, handler, httpNs float64
	var byKind [4]float64
	var warm, cold, tracedSteps, untracedSteps []float64
	var ages []int64
	for i := range ph.ops {
		op := &ph.ops[i]
		if !op.ok {
			continue
		}
		hns := float64(h.ns(op.id))
		total += float64(op.done.Sub(op.due))
		late += float64(op.pushed.Sub(op.due))
		wait += float64(op.sent.Sub(op.pushed))
		handler += hns
		httpNs += float64(op.done.Sub(op.sent)) - hns
		byKind[op.kind] += hns
		parent := h.tr.add(span{Name: "serve." + opNames[op.kind], Start: int64(op.due.Sub(h.tr.base)), End: int64(op.done.Sub(h.tr.base)), Parent: -1, ID: int64(op.id)})
		h.tr.add(span{Name: "serve.conn_wait", Start: int64(op.pushed.Sub(h.tr.base)), End: int64(op.sent.Sub(h.tr.base)), Parent: parent, ID: int64(op.id)})
		h.tr.add(span{Name: "serve.handler", Start: h.start[op.id].Load(), End: h.end[op.id].Load(), Parent: parent, ID: int64(op.id)})
		if op.kind != opStep {
			continue
		}
		ms := hns / 1e6
		switch {
		case op.gapIdle < serveIdleAfter:
			warm = append(warm, ms)
		case op.gapIdle > serveIdleAfter+serveEvictScan:
			cold = append(cold, ms)
		}
		if l.traced[op.sess] {
			tracedSteps = append(tracedSteps, ms)
			ages = append(ages, op.age)
		} else {
			untracedSteps = append(untracedSteps, ms)
		}
	}
	m["serve.gen_late_pct"] = share(late, total)
	m["serve.conn_wait_pct"] = share(wait, total)
	m["serve.handler_pct"] = share(handler, total)
	m["serve.http_pct"] = share(httpNs, total)
	for k, name := range opNames {
		m["serve.handler_"+name+"_pct"] = share(byKind[k], total)
	}
	m["serve.cold_warm_ratio"] = ratio(median(cold), median(warm))
	m["serve.traced_untraced_ratio"] = ratio(median(tracedSteps), median(untracedSteps))
	young, old := ageQuartiles(tracedSteps, ages)
	m["serve.traced_age_ratio"] = ratio(median(old), median(young))
	var specBytes, specN float64
	for _, op := range ph.ops {
		if op.kind == opSpectate && op.ok {
			specBytes += float64(op.bytes)
			specN++
		}
	}
	m["serve.spectate_bytes"] = ratio(specBytes, specN)
	c := ph.counters
	m["serve.resumes"] = float64(c["resumes"])
	m["serve.evictions"] = float64(c["evictions"])
	m["serve.ckpt_bytes_per_op"] = ratio(float64(c["checkpoint_bytes"]), float64(c["steps"]/serveStepSize+c["sends"]))
	m["serve.throttled"] = float64(c["throttled"])
	m["serve.shed"] = float64(c["shed"])
	m["serve.deadline_expired"] = float64(c["deadline_expired"])
	e.logf("step handler: warm p50 %.3f ms (n=%d), cold p50 %.3f ms (n=%d); traced p50 %.3f ms (n=%d), untraced p50 %.3f ms (n=%d)",
		median(warm), len(warm), median(cold), len(cold), median(tracedSteps), len(tracedSteps), median(untracedSteps), len(untracedSteps))
	e.logf("traced step handler by session age: youngest quartile p50 %.3f ms, oldest %.3f ms", median(young), median(old))
	e.logf("latency split: lateness %.1f%%, connection wait %.1f%%, http %.1f%%, handler %.1f%%",
		m["serve.gen_late_pct"], m["serve.conn_wait_pct"], m["serve.http_pct"], m["serve.handler_pct"])
}

// ageQuartiles returns the samples whose age falls in the lowest and in
// the highest quartile of ages.
func ageQuartiles(samples []float64, ages []int64) (young, old []float64) {
	if len(ages) == 0 {
		return nil, nil
	}
	fa := make([]float64, len(ages))
	for i, a := range ages {
		fa[i] = float64(a)
	}
	s := sortedCopy(fa)
	q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
	for i, a := range fa {
		if a <= q1 {
			young = append(young, samples[i])
		}
		if a >= q3 && q3 > q1 {
			old = append(old, samples[i])
		}
	}
	return young, old
}
