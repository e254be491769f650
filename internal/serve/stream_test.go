package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// spectate issues one long-poll spectate request.
func spectate(t *testing.T, sessURL, query string) SpectateResponse {
	t.Helper()
	var resp SpectateResponse
	status, _ := do(t, "GET", sessURL+"/spectate"+query, nil, &resp)
	if status != http.StatusOK {
		t.Fatalf("spectate%s: status %d", query, status)
	}
	return resp
}

// rollPositions replays a spectate batch: seed from its first keyframe,
// then apply every move.
func rollPositions(t *testing.T, recs []SpectateRecord) [][2]float64 {
	t.Helper()
	if len(recs) == 0 || recs[0].Kind != "keyframe" {
		t.Fatalf("batch does not start at a keyframe: %+v", recs)
	}
	pos := append([][2]float64(nil), recs[0].Positions...)
	for _, rec := range recs[1:] {
		for _, m := range rec.Moves {
			pos[m.Robot] = [2]float64{m.X, m.Y}
		}
	}
	return pos
}

// TestSpectateLifecycle drives the spectate endpoint through the whole
// session lifecycle: live tailing from offset 0, mid-stream join at the
// latest keyframe, spectating an evicted session without resuming it,
// the stream growing across an evict/resume cycle, and stream-file
// cleanup on delete.
func TestSpectateLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir, Stream: true})
	created := createSession(t, ts.URL, twoRobotConfig(9))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	streamFile := filepath.Join(dir, created.ID+streamSuffix)
	if _, err := os.Stat(streamFile); err != nil {
		t.Fatalf("create did not open a stream file: %v", err)
	}

	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 20}, nil); status != http.StatusOK {
		t.Fatal("step failed")
	}
	live := observeDigest(t, sessURL)

	// Tail from the beginning: header, instant-0 keyframe, then the 20
	// step records; rolling the moves reproduces the observed positions.
	full := spectate(t, sessURL, "?offset=0")
	if len(full.Records) < 22 || full.Records[0].Kind != "header" {
		t.Fatalf("full tail: %d records, first %q", len(full.Records), full.Records[0].Kind)
	}
	steps := 0
	for _, rec := range full.Records {
		if rec.Kind == "step" {
			steps++
		}
	}
	if steps != 20 {
		t.Fatalf("full tail holds %d step records, want 20", steps)
	}
	pos := rollPositions(t, full.Records[1:])
	for i, p := range live.Positions {
		if pos[i] != p {
			t.Fatalf("replayed position %d = %v, observed %v", i, pos[i], p)
		}
	}

	// Mid-stream join: offset -1 starts at the latest keyframe, which
	// carries the full configuration.
	join := spectate(t, sessURL, "?offset=-1")
	if len(join.Records) == 0 || join.Records[0].Kind != "keyframe" {
		t.Fatalf("join batch: %+v", join.Records)
	}
	if got := rollPositions(t, join.Records); len(got) != 2 {
		t.Fatalf("join keyframe carries %d positions", len(got))
	}
	if join.NextOffset != full.NextOffset {
		t.Fatalf("join tail ends at %d, full tail at %d", join.NextOffset, full.NextOffset)
	}

	// Spectating an evicted session reads the file without resuming it.
	if n := s.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	// Eviction closed the stream, appending its closing keyframe — the
	// session ran WithTrace, so that keyframe carries the trace digest.
	evicted := spectate(t, sessURL, "?offset=0")
	if len(evicted.Records) != len(full.Records)+1 {
		t.Fatalf("evicted tail: %d records, want %d", len(evicted.Records), len(full.Records)+1)
	}
	closing := evicted.Records[len(evicted.Records)-1]
	if closing.Kind != "keyframe" || closing.Digest != live.Digest {
		t.Fatalf("closing keyframe %+v, want digest %s", closing, live.Digest)
	}
	var info InfoResponse
	if status, _ := do(t, "GET", sessURL, nil, &info); status != http.StatusOK || info.State != "evicted" {
		t.Fatalf("spectate resumed the session: state %q", info.State)
	}

	// Touching the session resumes it and reopens the stream in append
	// mode: tailing from the old end yields the reopen keyframe and the
	// new steps.
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 5}, nil); status != http.StatusOK {
		t.Fatal("post-evict step failed")
	}
	cont := spectate(t, sessURL, "?offset="+jsonInt(full.NextOffset))
	if len(cont.Records) == 0 || cont.Records[0].Kind != "keyframe" {
		t.Fatalf("resumed stream does not reopen with a keyframe: %+v", cont.Records)
	}
	after := observeDigest(t, sessURL)
	pos = rollPositions(t, cont.Records)
	for i, p := range after.Positions {
		if pos[i] != p {
			t.Fatalf("post-resume position %d = %v, observed %v", i, pos[i], p)
		}
	}

	if status, _ := do(t, "DELETE", sessURL, nil, nil); status != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if status, _ := do(t, "GET", sessURL+"/spectate", nil, nil); status != http.StatusNotFound {
		t.Fatal("spectate on deleted session not 404")
	}
	if _, err := os.Stat(streamFile); !os.IsNotExist(err) {
		t.Fatalf("delete left the stream file behind: %v", err)
	}
	if s.m.Spectates.Value() == 0 {
		t.Fatal("spectate counter not incremented")
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestSpectateWithoutStream pins the 404 on servers running without
// Options.Stream.
func TestSpectateWithoutStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	created := createSession(t, ts.URL, twoRobotConfig(1))
	status, _ := do(t, "GET", ts.URL+"/v1/sessions/"+created.ID+"/spectate", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("spectate without streaming: status %d, want 404", status)
	}
}

// TestSpectateLongPollWakes pins the live-tail path: a spectator parked
// at the stream's end returns as soon as a concurrent step appends
// records, well before its wait expires.
func TestSpectateLongPollWakes(t *testing.T) {
	_, ts := newTestServer(t, Options{Stream: true})
	created := createSession(t, ts.URL, twoRobotConfig(4))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	end := spectate(t, sessURL, "?offset=-1").NextOffset

	done := make(chan SpectateResponse, 1)
	go func() {
		var resp SpectateResponse
		if status, _ := do(t, "GET", sessURL+"/spectate?wait=10s&offset="+jsonInt(end), nil, &resp); status == http.StatusOK {
			done <- resp
		}
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case resp := <-done:
			if len(resp.Records) == 0 {
				t.Fatalf("long-poll woke without records: %+v", resp)
			}
			if resp.NextOffset <= end {
				t.Fatalf("next offset did not advance: %d <= %d", resp.NextOffset, end)
			}
			return
		case <-deadline:
			t.Fatal("spectate long-poll never returned")
		default:
		}
		if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 1}, nil); status != http.StatusOK {
			t.Fatal("step failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpectateSSE pins the server-sent-events variant: one event per
// record, ids carrying resume offsets, and a terminal end event.
func TestSpectateSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Stream: true})
	created := createSession(t, ts.URL, twoRobotConfig(2))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 3}, nil); status != http.StatusOK {
		t.Fatal("step failed")
	}
	resp, err := http.Get(sessURL + "/spectate?sse=1&offset=0&wait=0s")
	if err != nil {
		t.Fatalf("sse: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events, ends := 0, 0
	var lastID string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
			events++
		case line == "event: end":
			ends++
		}
	}
	if events < 5 { // header, keyframe, 3 steps
		t.Fatalf("sse delivered %d events, want >= 5", events)
	}
	if ends != 1 {
		t.Fatalf("sse delivered %d end events, want 1", ends)
	}
	// The last event id is the resume offset: a reconnect from there
	// has nothing new to read.
	cont := spectate(t, sessURL, "?offset="+lastID)
	if len(cont.Records) != 0 {
		t.Fatalf("resume from last event id replays %d records", len(cont.Records))
	}
}

// TestObserveWaitBoundary pins the long-poll deadline fix: an
// unsatisfied wait returns 200 (not an error) once — and not before —
// the single derived deadline passes, and wait=0 answers immediately
// instead of sleeping a poll period.
func TestObserveWaitBoundary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	created := createSession(t, ts.URL, twoRobotConfig(3))
	sessURL := ts.URL + "/v1/sessions/" + created.ID

	start := time.Now()
	var o ObserveResponse
	status, _ := do(t, "GET", sessURL+"/observe?min_delivered=5&wait=0s", nil, &o)
	if status != http.StatusOK {
		t.Fatalf("wait=0: status %d", status)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("wait=0 took %v", el)
	}

	const wait = 150 * time.Millisecond
	start = time.Now()
	status, _ = do(t, "GET", sessURL+"/observe?min_delivered=5&wait=150ms", nil, &o)
	el := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("unsatisfied wait: status %d", status)
	}
	if el < wait {
		t.Fatalf("unsatisfied wait returned after %v, before its %v deadline", el, wait)
	}
	if el > wait+5*time.Second {
		t.Fatalf("unsatisfied wait overshot its deadline: %v", el)
	}
	if len(o.Delivered) != 0 {
		t.Fatalf("unexpected deliveries: %+v", o.Delivered)
	}

	// A malformed count is a bad request, not a count of zero that
	// answers at once.
	if status, _ := do(t, "GET", sessURL+"/observe?min_delivered=abc&wait=10s", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("min_delivered=abc: status %d, want 400", status)
	}
}

// TestRetryAfterComputed pins that every shed path derives Retry-After
// from the configured timescale of what is being waited out (via
// internal/retry), not a hardcoded constant.
func TestRetryAfterComputed(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Shards:         1,
		QueueDepth:     1,
		EvictScan:      3 * time.Second,
		RequestTimeout: 7 * time.Second,
	})
	created := createSession(t, ts.URL, twoRobotConfig(6))
	sessURL := ts.URL + "/v1/sessions/" + created.ID

	// Queue-full 503: the hint is the janitor period (capacity clears
	// on that timescale).
	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() { close(occupied); <-release })
	}()
	<-occupied
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() {})
	}()
	for len(s.shards[0].tasks) == 0 {
		time.Sleep(time.Millisecond)
	}
	status, h := do(t, "POST", sessURL+"/step", StepRequest{Steps: 1}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d", status)
	}
	if got := h.Get("Retry-After"); got != "3" {
		t.Fatalf("full-queue Retry-After = %q, want %q (ceil of EvictScan)", got, "3")
	}
	close(release)
	wg.Wait()

	// Draining 503: the hint is the request timeout (the drain bound).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	status, h = do(t, "GET", ts.URL+"/v1/sessions", nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", status)
	}
	if got := h.Get("Retry-After"); got != "7" {
		t.Fatalf("draining Retry-After = %q, want %q (ceil of RequestTimeout)", got, "7")
	}
}

// TestTouchDuringEvictStaysLive pins the eviction TOCTOU fix: a
// session touched while its evict task waits in the shard queue is
// re-checked against an execution-time cutoff and stays live, and
// EvictIdle reports only sessions actually folded.
func TestTouchDuringEvictStaysLive(t *testing.T) {
	s, ts := newTestServer(t, Options{Shards: 1, QueueDepth: 8})
	created := createSession(t, ts.URL, twoRobotConfig(8))
	s.mu.RLock()
	sess := s.sessions[created.ID]
	s.mu.RUnlock()

	// Backdate the session so the scan sees it idle, then park the
	// worker so the evict task sits in the queue.
	sess.touchNanos.Store(time.Now().Add(-time.Minute).UnixNano())
	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() { close(occupied); <-release })
	}()
	<-occupied

	nCh := make(chan int, 1)
	go func() { nCh <- s.EvictIdle(10 * time.Second) }()
	for len(s.shards[0].tasks) == 0 {
		time.Sleep(time.Millisecond)
	}
	// A request touches the session while the evict is pending...
	sess.touch()
	close(release)
	wg.Wait()
	// ...so the evict task must decline, and EvictIdle must not count
	// the declined task as an eviction.
	if n := <-nCh; n != 0 {
		t.Fatalf("EvictIdle evicted %d sessions after a touch, want 0", n)
	}
	if sess.evicted.Load() {
		t.Fatal("touched session was evicted anyway")
	}
	if v := s.m.Evictions.Value(); v != 0 {
		t.Fatalf("evictions counter %v after declined evict", v)
	}

	// EvictIdle(0) means "fold everything currently live" and is exempt
	// from the idleness re-check (every touch stamp is in the past).
	if n := s.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle(0) evicted %d, want 1", n)
	}
	if !sess.evicted.Load() {
		t.Fatal("EvictIdle(0) left the session live")
	}
}

// TestTouchEvictRace hammers concurrent touches (steps and observes)
// against concurrent evictions; run under -race this drives the
// touch/evict interleavings the deterministic test can only sample.
func TestTouchEvictRace(t *testing.T) {
	s, ts := newTestServer(t, Options{Stream: true})
	created := createSession(t, ts.URL, twoRobotConfig(5))
	sessURL := ts.URL + "/v1/sessions/" + created.ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.EvictIdle(0)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 3}, nil); status != http.StatusOK {
			t.Fatalf("step %d: status %d", i, status)
		}
		if status, _ := do(t, "GET", sessURL+"/observe", nil, nil); status != http.StatusOK {
			t.Fatalf("observe %d: status %d", i, status)
		}
		spectate(t, sessURL, "?offset=-1")
	}
	close(stop)
	wg.Wait()
	if o := observeDigest(t, sessURL); o.Time != 120 {
		t.Fatalf("session time %d after hammer, want 120", o.Time)
	}
}
