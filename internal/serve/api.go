package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"waggle"
	"waggle/internal/obs"
	"waggle/internal/retry"
	"waggle/internal/wire"
)

// maxBodyBytes bounds request bodies: session configs and payloads are
// small; anything bigger is hostile.
const maxBodyBytes = 1 << 20

// observePollEvery is the re-check period of the long-polls: observe,
// spectate and its SSE variant (pollWait).
const observePollEvery = 25 * time.Millisecond

// CreateRequest is the POST /v1/sessions body. Positions is required
// (2..Options.MaxRobots robots); everything else defaults to the
// library's weakest assumptions. Payloads elsewhere in the API are
// base64 (encoding/json []byte convention).
type CreateRequest struct {
	Positions        [][2]float64 `json:"positions"`
	Synchronous      bool         `json:"synchronous,omitempty"`
	Identified       bool         `json:"identified,omitempty"`
	SenseOfDirection bool         `json:"sense_of_direction,omitempty"`
	Seed             int64        `json:"seed,omitempty"`
	Sigma            float64      `json:"sigma,omitempty"`
	Trace            bool         `json:"trace,omitempty"`
	Protocol         string       `json:"protocol,omitempty"`
	Scheduler        string       `json:"scheduler,omitempty"`
	ActivationProb   float64      `json:"activation_prob,omitempty"`
	Levels           int          `json:"levels,omitempty"`
	BoundedSlices    int          `json:"bounded_slices,omitempty"`
}

// CreateResponse is the POST /v1/sessions reply.
type CreateResponse struct {
	ID       string `json:"id"`
	N        int    `json:"n"`
	Protocol string `json:"protocol"`
}

// StepRequest is the POST /v1/sessions/{id}/step body.
type StepRequest struct {
	// Steps is how many instants to advance (default 1, capped by
	// Options.MaxStepsPerRequest).
	Steps int `json:"steps,omitempty"`
}

// StepResponse is the step reply.
type StepResponse struct {
	Time      int `json:"time"`
	Stepped   int `json:"stepped"`
	Delivered int `json:"delivered"`
}

// SendRequest is the POST /v1/sessions/{id}/send body.
type SendRequest struct {
	From    int    `json:"from"`
	To      int    `json:"to,omitempty"`
	Payload []byte `json:"payload"`
	// All selects the one-to-all diameter transmission instead of a
	// unicast (To is ignored).
	All bool `json:"all,omitempty"`
}

// SendResponse is the send reply.
type SendResponse struct {
	Time int `json:"time"`
}

// WireMessage is one delivered message in API replies.
type WireMessage struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Payload []byte `json:"payload"`
}

// ObserveResponse is the GET /v1/sessions/{id}/observe reply: the
// session's externally observable state. Digest is the checkpoint
// trace digest (sessions created with trace only, and only when
// ?digest=1) — two runs with equal digests moved identically.
type ObserveResponse struct {
	ID             string        `json:"id"`
	State          string        `json:"state"`
	Time           int           `json:"time"`
	Resumes        int64         `json:"resumes"`
	StepBudgetLeft int           `json:"step_budget_left"`
	Positions      [][2]float64  `json:"positions"`
	Delivered      []WireMessage `json:"delivered"`
	Digest         string        `json:"digest,omitempty"`
}

// InfoResponse is the lock-free session summary (GET /v1/sessions/{id}
// and the list endpoint). It never touches the session — reading it
// does not reset the idle clock or resume an evicted session.
type InfoResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	N       int64  `json:"n"`
	Resumes int64  `json:"resumes"`
	IdleMS  int64  `json:"idle_ms"`
}

// ListResponse is the GET /v1/sessions reply.
type ListResponse struct {
	Active   int            `json:"active"`
	Evicted  int            `json:"evicted"`
	Sessions []InfoResponse `json:"sessions"`
}

type errResponse struct {
	Error string `json:"error"`
}

// Handler mounts the /v1 session API on the shared obs introspection
// mux (/metrics, /metrics.json, /trace, /snapshot, pprof), so one
// listener serves both the service and its observability.
func (s *Server) Handler() http.Handler {
	mux := obs.Mux(s.ob)
	mux.HandleFunc("POST /v1/sessions", s.timed(s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.timed(s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.timed(s.handleInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.timed(s.handleDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.timed(s.handleStep))
	mux.HandleFunc("POST /v1/sessions/{id}/send", s.timed(s.handleSend))
	mux.HandleFunc("GET /v1/sessions/{id}/observe", s.timed(s.handleObserve))
	mux.HandleFunc("GET /v1/sessions/{id}/spectate", s.timed(s.handleSpectate))
	return mux
}

// timed wraps a handler with the request counter, the latency
// histogram, the body-size bound, and the overload gates: draining →
// 503, token bucket → 429 with Retry-After.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { s.m.RequestSeconds.Observe(time.Since(start).Seconds()) }()
		s.m.Requests.Inc()
		if s.Draining() {
			s.m.Shed.Inc()
			w.Header().Set("Retry-After", s.retryHintFor(errDraining))
			writeJSON(w, http.StatusServiceUnavailable, errResponse{"server is draining"})
			return
		}
		if ok, retryIn := s.limiter.take(); !ok {
			s.m.Throttled.Inc()
			w.Header().Set("Retry-After", retry.CeilSeconds(retryIn))
			writeJSON(w, http.StatusTooManyRequests, errResponse{"rate limit exceeded"})
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		h(w, r)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{"bad request body: " + err.Error()})
		return
	}
	if n := len(req.Positions); n < 2 || n > s.opts.MaxRobots {
		writeJSON(w, http.StatusBadRequest, errResponse{
			fmt.Sprintf("positions: need 2..%d robots, got %d", s.opts.MaxRobots, n)})
		return
	}
	opts, err := buildSwarmOptions(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{err.Error()})
		return
	}
	s.mu.RLock()
	atCapacity := len(s.sessions) >= s.opts.MaxSessions
	s.mu.RUnlock()
	if atCapacity {
		s.m.Shed.Inc()
		w.Header().Set("Retry-After", s.retryHintFor(nil))
		writeJSON(w, http.StatusServiceUnavailable, errResponse{"session capacity reached"})
		return
	}
	id, err := newSessionID()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errResponse{err.Error()})
		return
	}
	positions := make([]waggle.Point, len(req.Positions))
	for i, p := range req.Positions {
		positions[i] = waggle.Point{X: p[0], Y: p[1]}
	}
	sess := &session{
		id:    id,
		shard: shardOf(id, s.opts.Shards),
		path:  filepath.Join(s.opts.Dir, id+ckptSuffix),
	}
	if s.opts.Stream {
		sess.streamPath = filepath.Join(s.opts.Dir, id+streamSuffix)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var resp CreateResponse
	var buildErr error
	// Construction runs on the session's future shard: swarm building
	// and the base checkpoint obey the same deadline and backpressure
	// as every other op.
	runErr := s.run(ctx, sess.shard, func() {
		swarm, err := waggle.NewSwarm(positions, opts...)
		if err != nil {
			buildErr = &badRequestError{err}
			return
		}
		writer, err := swarm.NewCheckpointWriter(sess.path, waggle.CodecDelta)
		if err == nil {
			err = writer.Save()
		}
		if err == nil && sess.streamPath != "" {
			_, err = swarm.NewStreamWriter(sess.streamPath)
		}
		if err != nil {
			buildErr = err
			return
		}
		s.m.CheckpointBytes.Add(int64(writer.LastSaveBytes()))
		sess.swarm, sess.writer = swarm, writer
		sess.robots.Store(int64(swarm.N()))
		sess.touch()
		resp = CreateResponse{ID: id, N: swarm.N(), Protocol: swarm.Protocol().String()}
	})
	if runErr != nil {
		s.failSubmit(w, runErr)
		return
	}
	if buildErr != nil {
		s.fail(w, buildErr)
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		_ = sess.remove()
		s.m.Shed.Inc()
		w.Header().Set("Retry-After", s.retryHintFor(nil))
		writeJSON(w, http.StatusServiceUnavailable, errResponse{"session capacity reached"})
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.active.Add(1)
	s.m.Created.Inc()
	s.publishGauges()
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	req := StepRequest{Steps: 1}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{"bad request body: " + err.Error()})
			return
		}
		if req.Steps == 0 {
			req.Steps = 1
		}
	}
	if req.Steps < 1 || req.Steps > s.opts.MaxStepsPerRequest {
		writeJSON(w, http.StatusBadRequest, errResponse{
			fmt.Sprintf("steps: want 1..%d, got %d", s.opts.MaxStepsPerRequest, req.Steps)})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var resp StepResponse
	err := s.withSession(ctx, id, func(sess *session) error {
		if sess.swarm.Time()+req.Steps > s.opts.StepBudget {
			return fmt.Errorf("%w: %d of %d instants used, %d requested",
				errBudget, sess.swarm.Time(), s.opts.StepBudget, req.Steps)
		}
		for i := 0; i < req.Steps; i++ {
			if err := sess.swarm.Step(); err != nil {
				return err
			}
		}
		s.m.Steps.Add(int64(req.Steps))
		if err := sess.checkpoint(); err != nil {
			return err
		}
		s.m.CheckpointBytes.Add(int64(sess.writer.LastSaveBytes()))
		resp = StepResponse{
			Time:      sess.swarm.Time(),
			Stepped:   req.Steps,
			Delivered: len(sess.swarm.Delivered()),
		}
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req SendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{"bad request body: " + err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var resp SendResponse
	err := s.withSession(ctx, id, func(sess *session) error {
		var err error
		if req.All {
			err = sess.swarm.SendAll(req.From, req.Payload)
		} else {
			err = sess.swarm.Send(req.From, req.To, req.Payload)
		}
		if err != nil {
			return &badRequestError{err}
		}
		s.m.Sends.Inc()
		if err := sess.checkpoint(); err != nil {
			return err
		}
		s.m.CheckpointBytes.Add(int64(sess.writer.LastSaveBytes()))
		resp = SendResponse{Time: sess.swarm.Time()}
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	withDigest := q.Get("digest") != "" && q.Get("digest") != "0"
	minDelivered := 0
	if v := q.Get("min_delivered"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 0 {
			writeJSON(w, http.StatusBadRequest, errResponse{"min_delivered: want a non-negative integer"})
			return
		}
		minDelivered = m
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{"wait: " + err.Error()})
			return
		}
		wait = d
	}
	if wait > s.opts.MaxObserveWait {
		wait = s.opts.MaxObserveWait
	}
	// One deadline governs the whole long-poll: both the loop's expiry
	// check and the submission context derive from the same clock read.
	// (They used to be computed from two separate time.Now() calls, so
	// the context could outlive the loop's deadline by the skew between
	// them and the final poll of a satisfied wait could be skipped; the
	// strict time.Now().After(deadline) check also made wait=0 sleep a
	// full poll period on a coarse clock instead of answering at once.)
	pollDeadline := time.Now().Add(wait)
	ctx, cancel := context.WithDeadline(r.Context(), pollDeadline.Add(s.opts.RequestTimeout))
	defer cancel()
	for {
		var resp ObserveResponse
		err := s.withSession(ctx, id, func(sess *session) error {
			var err error
			resp, err = s.observeLocked(sess, withDigest)
			return err
		})
		if err != nil {
			s.fail(w, err)
			return
		}
		// Long-poll: hold the request open until enough messages have
		// been delivered (by other clients stepping the session) or
		// the wait expires.
		if len(resp.Delivered) >= minDelivered || !time.Now().Before(pollDeadline) {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if !pollWait(r.Context(), pollDeadline) {
			return
		}
	}
}

// pollWait sleeps until the next re-check of a long-poll — one poll
// period, or less when the request's single deadline comes sooner — and
// reports false if the client went away first.
func pollWait(ctx context.Context, deadline time.Time) bool {
	sleep := observePollEvery
	if rem := time.Until(deadline); rem < sleep {
		sleep = rem
	}
	t := time.NewTimer(sleep)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// observeLocked builds the observable-state reply; runs on the shard.
func (s *Server) observeLocked(sess *session, withDigest bool) (ObserveResponse, error) {
	swarm := sess.swarm
	pts := swarm.Positions()
	positions := make([][2]float64, len(pts))
	for i, p := range pts {
		positions[i] = [2]float64{p.X, p.Y}
	}
	delivered := swarm.Delivered()
	msgs := make([]WireMessage, len(delivered))
	for i, m := range delivered {
		msgs[i] = WireMessage{From: m.From, To: m.To, Payload: m.Payload}
	}
	resp := ObserveResponse{
		ID:             sess.id,
		State:          sess.state(s.opts.IdleAfter),
		Time:           swarm.Time(),
		Resumes:        sess.resumes.Load(),
		StepBudgetLeft: s.opts.StepBudget - swarm.Time(),
		Positions:      positions,
		Delivered:      msgs,
	}
	if withDigest {
		ck, err := swarm.Checkpoint()
		if err != nil {
			return ObserveResponse{}, err
		}
		resp.Digest = ck.State.TraceDigest
	}
	return resp, nil
}

// SpectateMove is one robot relocation inside a spectate record.
type SpectateMove struct {
	Robot int     `json:"robot"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// SpectateEvent is one fault-family trace event inside a spectate
// record.
type SpectateEvent struct {
	Kind  string  `json:"kind"`
	T     int     `json:"t"`
	Robot int     `json:"robot"`
	Peer  int     `json:"peer,omitempty"`
	Val   float64 `json:"val,omitempty"`
}

// SpectateRecord is one decoded waggle-stream/v1 record. Keyframes
// carry the full configuration (Positions, cumulative DeliveredTotal,
// and — on the closing keyframe of a traced session — the trace
// Digest); step records carry the instant's deltas.
type SpectateRecord struct {
	Kind           string          `json:"kind"`
	Offset         int64           `json:"offset"`
	Next           int64           `json:"next_offset"`
	T              int             `json:"t"`
	Positions      [][2]float64    `json:"positions,omitempty"`
	DeliveredTotal int             `json:"delivered_total,omitempty"`
	Digest         string          `json:"digest,omitempty"`
	Moves          []SpectateMove  `json:"moves,omitempty"`
	Active         []int           `json:"active,omitempty"`
	Deliveries     []WireMessage   `json:"deliveries,omitempty"`
	Events         []SpectateEvent `json:"events,omitempty"`
}

// SpectateResponse is the long-poll GET /v1/sessions/{id}/spectate
// reply: the stream records from the requested offset, and the offset
// to pass back to continue the tail. Torn reports a crash-cut trailing
// record still being appended — poll again from NextOffset.
type SpectateResponse struct {
	ID         string           `json:"id"`
	NextOffset int64            `json:"next_offset"`
	Torn       bool             `json:"torn,omitempty"`
	Records    []SpectateRecord `json:"records"`
}

func spectateRecordOf(rec wire.StreamRecord) SpectateRecord {
	out := SpectateRecord{
		Kind:           rec.Kind,
		Offset:         rec.Offset,
		Next:           rec.Next,
		T:              rec.T,
		DeliveredTotal: rec.Delivered,
		Digest:         rec.Digest,
		Active:         rec.Active,
	}
	if len(rec.Positions) > 0 {
		out.Positions = make([][2]float64, len(rec.Positions))
		for i, p := range rec.Positions {
			out.Positions[i] = [2]float64{p.X, p.Y}
		}
	}
	if len(rec.Moves) > 0 {
		out.Moves = make([]SpectateMove, len(rec.Moves))
		for i, m := range rec.Moves {
			out.Moves[i] = SpectateMove{Robot: m.Robot, X: m.To.X, Y: m.To.Y}
		}
	}
	if len(rec.Deliveries) > 0 {
		out.Deliveries = make([]WireMessage, len(rec.Deliveries))
		for i, d := range rec.Deliveries {
			out.Deliveries[i] = WireMessage{From: d.From, To: d.To, Payload: d.Payload}
		}
	}
	if len(rec.Events) > 0 {
		out.Events = make([]SpectateEvent, len(rec.Events))
		for i, e := range rec.Events {
			out.Events[i] = SpectateEvent{
				Kind: e.Kind.String(), T: e.T, Robot: e.Robot, Peer: e.Peer, Val: e.Val,
			}
		}
	}
	return out
}

// maxSpectateRecords caps one spectate reply/poll batch.
const maxSpectateRecords = 4096

// handleSpectate tails a session's movement stream. It reads the
// stream file directly — never touching the session, so spectating an
// evicted session does not resume it and spectators do not reset the
// idle clock or contend on the shard queue. ?offset is the record
// boundary to start from (omitted or -1: the latest keyframe, the
// mid-stream join point); ?wait long-polls until records appear past
// the offset; ?max caps the batch; ?sse=1 (or Accept:
// text/event-stream) switches to server-sent events, one event per
// record with the record's next offset as the event id, honoring
// Last-Event-ID on reconnect.
func (s *Server) handleSpectate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil || sess.deleted.Load() {
		writeJSON(w, http.StatusNotFound, errResponse{"unknown session"})
		return
	}
	if sess.streamPath == "" {
		writeJSON(w, http.StatusNotFound, errResponse{"session has no stream (server runs without streaming)"})
		return
	}
	q := r.URL.Query()
	offset := int64(-1)
	if v := q.Get("offset"); v != "" {
		o, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{"offset: " + err.Error()})
			return
		}
		offset = o
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if o, err := strconv.ParseInt(v, 10, 64); err == nil {
			offset = o
		}
	}
	max := 256
	if v := q.Get("max"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 1 {
			writeJSON(w, http.StatusBadRequest, errResponse{"max: want a positive integer"})
			return
		}
		max = m
	}
	if max > maxSpectateRecords {
		max = maxSpectateRecords
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{"wait: " + err.Error()})
			return
		}
		wait = d
	}
	if wait > s.opts.MaxObserveWait {
		wait = s.opts.MaxObserveWait
	}
	s.m.Spectates.Inc()
	// Same single-deadline discipline as handleObserve.
	pollDeadline := time.Now().Add(wait)
	tail := func(from int64) ([]wire.StreamRecord, int64, bool, error) {
		data, err := os.ReadFile(sess.streamPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, 0, false, err
		}
		// A missing file (recovered session not yet resumed under a
		// newly stream-enabled server) tails as an empty stream.
		return wire.TailStream(data, from, max)
	}
	if q.Get("sse") == "1" || r.Header.Get("Accept") == "text/event-stream" {
		s.spectateSSE(w, r, sess, offset, pollDeadline, tail)
		return
	}
	for {
		recs, next, torn, err := tail(offset)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{"spectate: " + err.Error()})
			return
		}
		if len(recs) > 0 || !time.Now().Before(pollDeadline) {
			resp := SpectateResponse{ID: sess.id, NextOffset: next, Torn: torn,
				Records: make([]SpectateRecord, len(recs))}
			for i, rec := range recs {
				resp.Records[i] = spectateRecordOf(rec)
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if !pollWait(r.Context(), pollDeadline) {
			return
		}
	}
}

// spectateSSE is the server-sent-events spectate variant: it pushes
// each stream record as one event until the wait deadline, the client
// disconnecting, or the session disappearing. Event ids are stream
// offsets, so a reconnecting EventSource resumes exactly where it left
// off via Last-Event-ID.
func (s *Server) spectateSSE(w http.ResponseWriter, r *http.Request, sess *session,
	offset int64, pollDeadline time.Time, tail func(int64) ([]wire.StreamRecord, int64, bool, error)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errResponse{"response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		recs, next, _, err := tail(offset)
		if err != nil {
			fmt.Fprintf(w, "event: error\ndata: %q\n\n", err.Error())
			fl.Flush()
			return
		}
		for _, rec := range recs {
			b, err := json.Marshal(spectateRecordOf(rec))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", rec.Next, b)
		}
		if len(recs) > 0 {
			fl.Flush()
			offset = next
		}
		if sess.deleted.Load() || !time.Now().Before(pollDeadline) {
			fmt.Fprintf(w, "event: end\ndata: {\"next_offset\":%d}\n\n", next)
			fl.Flush()
			return
		}
		if !pollWait(r.Context(), pollDeadline) {
			return
		}
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errResponse{"unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, s.infoOf(sess))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]InfoResponse, 0, len(s.sessions))
	for _, sess := range s.sessions {
		infos = append(infos, s.infoOf(sess))
	}
	s.mu.RUnlock()
	active, evicted := s.Counts()
	writeJSON(w, http.StatusOK, ListResponse{Active: active, Evicted: evicted, Sessions: infos})
}

// infoOf reads only atomics — listing sessions must not touch them.
func (s *Server) infoOf(sess *session) InfoResponse {
	return InfoResponse{
		ID:      sess.id,
		State:   sess.state(s.opts.IdleAfter),
		N:       sess.robots.Load(),
		Resumes: sess.resumes.Load(),
		IdleMS:  time.Since(sess.lastTouch()).Milliseconds(),
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errResponse{"unknown session"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var opErr error
	wasEvicted := false
	err := s.run(ctx, sess.shard, func() {
		if sess.deleted.Load() {
			opErr = errUnknownSession
			return
		}
		wasEvicted = sess.evicted.Load()
		opErr = sess.remove()
	})
	if err != nil {
		s.failSubmit(w, err)
		return
	}
	if opErr != nil {
		s.fail(w, opErr)
		return
	}
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	if wasEvicted {
		s.evicted.Add(-1)
	} else {
		s.active.Add(-1)
	}
	s.m.Deletes.Inc()
	s.publishGauges()
	w.WriteHeader(http.StatusNoContent)
}

// badRequestError marks a client-input failure from the swarm layer
// (invalid robot index, oversized payload, ...).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// fail maps op errors to HTTP statuses: backpressure and drain → 503
// (+ Retry-After), deadline-expired → 503, budget → 403, unknown
// session → 404, client input → 400, the rest → 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var bad *badRequestError
	switch {
	case errors.Is(err, errUnknownSession):
		writeJSON(w, http.StatusNotFound, errResponse{"unknown session"})
	case errors.Is(err, errBudget):
		writeJSON(w, http.StatusForbidden, errResponse{err.Error()})
	case errors.As(err, &bad):
		writeJSON(w, http.StatusBadRequest, errResponse{err.Error()})
	case errors.Is(err, errBusy), errors.Is(err, errDraining), errors.Is(err, errExpired):
		s.failSubmit(w, err)
	default:
		writeJSON(w, http.StatusInternalServerError, errResponse{err.Error()})
	}
}

// failSubmit maps submission failures: all three are "try again later".
func (s *Server) failSubmit(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", s.retryHintFor(err))
	switch {
	case errors.Is(err, errExpired):
		s.m.Expired.Inc()
	default:
		s.m.Shed.Inc()
	}
	writeJSON(w, http.StatusServiceUnavailable, errResponse{err.Error()})
}

// retryHintFor derives the Retry-After hint for a shed request from
// the configured timescale of whatever is being waited out, through
// the same rounding as the token-bucket 429 path (retry.CeilSeconds)
// instead of a hardcoded constant: a drain or an expired deadline
// clears on the order of the request timeout; a full shard queue or
// the session-capacity ceiling clears on the order of a janitor scan.
func (s *Server) retryHintFor(err error) string {
	d := s.opts.EvictScan
	if errors.Is(err, errDraining) || errors.Is(err, errExpired) {
		d = s.opts.RequestTimeout
	}
	return retry.CeilSeconds(d)
}

// buildSwarmOptions maps the JSON session config onto waggle options.
func buildSwarmOptions(req CreateRequest) ([]waggle.Option, error) {
	var opts []waggle.Option
	if req.Synchronous {
		opts = append(opts, waggle.WithSynchronous())
	}
	if req.Identified {
		opts = append(opts, waggle.WithIdentifiedRobots())
	}
	if req.SenseOfDirection {
		opts = append(opts, waggle.WithSenseOfDirection())
	}
	if req.Seed != 0 {
		opts = append(opts, waggle.WithSeed(req.Seed))
	}
	if req.Sigma != 0 {
		opts = append(opts, waggle.WithSigma(req.Sigma))
	}
	if req.Trace {
		opts = append(opts, waggle.WithTrace())
	}
	if req.ActivationProb != 0 {
		opts = append(opts, waggle.WithActivationProbability(req.ActivationProb))
	}
	if req.Levels != 0 {
		opts = append(opts, waggle.WithLevels(req.Levels))
	}
	if req.BoundedSlices != 0 {
		opts = append(opts, waggle.WithBoundedSlices(req.BoundedSlices))
	}
	switch req.Protocol {
	case "", "auto":
	case "sync2":
		opts = append(opts, waggle.WithProtocol(waggle.ProtoSync2))
	case "syncn":
		opts = append(opts, waggle.WithProtocol(waggle.ProtoSyncN))
	case "async2":
		opts = append(opts, waggle.WithProtocol(waggle.ProtoAsync2))
	case "asyncn":
		opts = append(opts, waggle.WithProtocol(waggle.ProtoAsyncN))
	case "asyncbounded":
		opts = append(opts, waggle.WithProtocol(waggle.ProtoAsyncBounded))
	default:
		return nil, fmt.Errorf("unknown protocol %q", req.Protocol)
	}
	switch req.Scheduler {
	case "", "random":
	case "roundrobin":
		opts = append(opts, waggle.WithScheduler(waggle.SchedulerRoundRobin))
	default:
		return nil, fmt.Errorf("unknown scheduler %q (random|roundrobin)", req.Scheduler)
	}
	return opts, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
