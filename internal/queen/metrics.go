package queen

import "waggle/internal/obs"

// metrics is the queen's instrumentation on the shared obs registry,
// so -listen exposes campaign progress next to any sim metrics.
type metrics struct {
	// Dispatched counts lease grants; Retried the grants of a shard
	// past its first attempt; Stolen the grants that handed over a
	// dead worker's snapshot; Completed accepted results; Failed
	// worker-reported shard failures; LeaseExpired reaper firings.
	Dispatched, Retried, Stolen, Completed, Failed, LeaseExpired *obs.Counter
	// Snapshots counts banked shard snapshots; SnapshotBytes their
	// cumulative size.
	Snapshots, SnapshotBytes *obs.Counter
	// Pending/Leased/DoneShards are the current task-graph population;
	// Workers the distinct workers seen.
	Pending, Leased, DoneShards, Workers *obs.Gauge
	// ShardSeconds is the lease-to-complete wall time of every shard.
	// Wall-clock, therefore volatile (excluded from deterministic
	// snapshots). One histogram for all workers: worker names come from
	// clients and must not mint metric names.
	ShardSeconds *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		Dispatched:    r.Counter("waggle_queen_shards_dispatched_total", "Shard leases granted."),
		Retried:       r.Counter("waggle_queen_shards_retried_total", "Shard leases granted past the first attempt."),
		Stolen:        r.Counter("waggle_queen_shards_stolen_total", "Shard leases granted with a prior worker's snapshot."),
		Completed:     r.Counter("waggle_queen_shards_completed_total", "Shard results accepted."),
		Failed:        r.Counter("waggle_queen_shards_failed_total", "Worker-reported shard failures."),
		LeaseExpired:  r.Counter("waggle_queen_lease_expired_total", "Leases expired by the reaper (dead or wedged worker)."),
		Snapshots:     r.Counter("waggle_queen_snapshots_total", "Migratable shard snapshots banked by heartbeats."),
		SnapshotBytes: r.Counter("waggle_queen_snapshot_bytes_total", "Cumulative bytes of banked shard snapshots."),
		Pending:       r.Gauge("waggle_queen_shards_pending", "Shards waiting for a worker."),
		Leased:        r.Gauge("waggle_queen_shards_leased", "Shards currently leased out."),
		DoneShards:    r.Gauge("waggle_queen_shards_done", "Shards completed."),
		Workers:       r.Gauge("waggle_queen_workers", "Distinct workers that have requested a lease."),
		ShardSeconds:  r.Histogram("waggle_queen_shard_seconds", "Wall-clock shard latency, lease to completion.", shardSecondsBounds, true),
	}
}

// shardSecondsBounds spans 5ms–2m: a resumed shard tail sits at the
// bottom, a cold full-budget scenario with stalls near the top.
var shardSecondsBounds = []float64{
	5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}
