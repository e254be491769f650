package serve

import "waggle/internal/obs"

// metrics is the daemon's instrumentation, registered on the shared
// obs registry so the introspection endpoints (/metrics,
// /metrics.json, /snapshot) expose it alongside any sim metrics.
// Request latency is wall-clock and therefore volatile (excluded from
// deterministic snapshots); the rest counts service events.
type metrics struct {
	// SessionsActive and SessionsEvicted are the current session
	// population by residency.
	SessionsActive, SessionsEvicted *obs.Gauge
	// Created/Evictions/Resumes/Deletes/Recovered count lifecycle
	// transitions; Recovered counts chains adopted from Dir at boot.
	Created, Evictions, Resumes, Deletes, Recovered *obs.Counter
	// Requests counts /v1 API requests; Throttled the 429s from the
	// token bucket; Shed the 503s from full queues, draining, and
	// capacity; Expired the requests whose deadline passed while
	// queued.
	Requests, Throttled, Shed, Expired *obs.Counter
	// Steps counts executed instants across all sessions; Sends the
	// accepted send/broadcast ops; CheckpointBytes the bytes written
	// to chains; Spectates the stream-tail polls served (long-poll
	// and SSE).
	Steps, Sends, CheckpointBytes, Spectates *obs.Counter
	// RequestSeconds is the wall-clock /v1 request latency.
	RequestSeconds *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		SessionsActive:  r.Gauge("waggle_serve_sessions_active", "Live (in-memory) sessions."),
		SessionsEvicted: r.Gauge("waggle_serve_sessions_evicted", "Sessions evicted to checkpoint chains, resumable on touch."),
		Created:         r.Counter("waggle_serve_sessions_created_total", "Sessions created."),
		Evictions:       r.Counter("waggle_serve_evictions_total", "Idle sessions folded into their checkpoint chains."),
		Resumes:         r.Counter("waggle_serve_resumes_total", "Evicted sessions transparently resumed on touch."),
		Deletes:         r.Counter("waggle_serve_deletes_total", "Sessions deleted by clients."),
		Recovered:       r.Counter("waggle_serve_recovered_total", "Checkpoint chains adopted from the data dir at startup."),
		Requests:        r.Counter("waggle_serve_requests_total", "API requests received (before throttling)."),
		Throttled:       r.Counter("waggle_serve_throttled_total", "Requests rejected 429 by the token bucket."),
		Shed:            r.Counter("waggle_serve_shed_total", "Requests rejected 503 (queue full, draining, or at capacity)."),
		Expired:         r.Counter("waggle_serve_deadline_expired_total", "Queued requests skipped because their deadline passed."),
		Steps:           r.Counter("waggle_serve_steps_total", "Simulation instants executed across all sessions."),
		Sends:           r.Counter("waggle_serve_sends_total", "Send/broadcast operations accepted."),
		CheckpointBytes: r.Counter("waggle_serve_checkpoint_bytes_total", "Bytes appended to session checkpoint chains."),
		Spectates:       r.Counter("waggle_serve_spectates_total", "Stream spectate polls served (long-poll and SSE)."),
		RequestSeconds:  r.Histogram("waggle_serve_request_seconds", "Wall-clock /v1 request latency.", obs.LatencyBounds, true),
	}
}
