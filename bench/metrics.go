package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (TestSpecMatchesCode
// pins them equal): a run without tracing reports every end-to-end
// metric, a traced run every per-layer metric, on every workload.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of each workload waits on. An "op" is
// the workload's unit of work: a delivered message (chat), an instant
// (swarm), an HTTP request (serve), a save (ckpt). Each is a median, so
// that a few seconds of interference from the rest of the host do not
// move it; the tails are printed with their sample counts but are too
// noisy to gate on.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},     // median op latency
	{"ops_per_s", "1/s"}, // median over ten consecutive slices of the run
	{"setup_s", "s"},     // median of the run's set-ups
	{"heap_mb", "MB"},    // live heap of the set-up system, after a GC
}

// perLayer splits the op time by layer. Layer times are shares of the
// traced op time (so a workload that never enters a layer reads 0, not
// a time); the rest are work counts, bytes and ratios. README.md says
// which end-to-end metric each should move and where it should stay
// flat.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"sim.step_pct", "%"},
	{"sim.schedule_pct", "%"},
	{"sim.prepare_pct", "%"},
	{"sim.compute_pct", "%"},
	{"sim.apply_pct", "%"},
	{"sim.behavior_pct", "%"},
	{"sim.parallel_util", "ratio"},
	{"sim.activations_per_step", "count"},
	{"sim.view_points_per_activation", "count"},
	{"core.collect_pct", "%"},
	{"protocol.first_activation_ratio", "ratio"},
	{"protocol.instants_per_msg", "count"},
	{"protocol.excursions_per_msg", "count"},
	{"ckpt.base_save_pct", "%"},
	{"ckpt.capture_pct", "%"},
	{"wire.encode_pct", "%"},
	{"ckpt.write_pct", "%"},
	{"ckpt.delta_bytes", "B"},
	{"ckpt.chain_len", "count"},
	{"ckpt.file_bytes", "B"},
	{"serve.gen_late_pct", "%"},
	{"serve.conn_wait_pct", "%"},
	{"serve.handler_pct", "%"},
	{"serve.http_pct", "%"},
	{"serve.handler_step_pct", "%"},
	{"serve.handler_send_pct", "%"},
	{"serve.handler_observe_pct", "%"},
	{"serve.handler_spectate_pct", "%"},
	{"serve.cold_warm_ratio", "ratio"},
	{"serve.traced_untraced_ratio", "ratio"},
	{"serve.traced_age_ratio", "ratio"},
	{"serve.spectate_bytes", "B"},
	{"serve.resumes", "count"},
	{"serve.evictions", "count"},
	{"serve.ckpt_bytes_per_op", "B"},
	{"serve.throttled", "count"},
	{"serve.shed", "count"},
	{"serve.deadline_expired", "count"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output, and one workload's
// entry in a -out file.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of an
// ascending sample (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailQ is the highest quantile of an n-sample set that still has at
// least ten samples beyond it, capped at p99 (the maximum for n <= 10).
func tailQ(n int) float64 {
	if n <= 10 {
		return 1
	}
	return math.Min(0.99, float64(n-10)/float64(n))
}

// pctLine formats the median and the tail of a latency sample with its
// sample count, the way every percentile is printed.
func pctLine(name string, ms []float64) string {
	s := sortedCopy(ms)
	q := tailQ(len(s))
	return fmt.Sprintf("%s: p50 %.3f ms, p%.1f %.3f ms (n=%d)", name, quantile(s, 0.5), 100*q, quantile(s, q), len(s))
}

// share is part as a percentage of whole (0 when whole is 0).
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// ratio is a/b (0 when b is 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB collects garbage and returns the bytes still reachable, in
// MiB: what the built system holds, independent of when the collector
// last ran.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// workUnit is one consecutive chunk of a run's work: a round, an
// instant, a save, or a whole open-loop phase.
type workUnit struct {
	ops int
	ns  int64
}

// throughput splits the units into (up to) ten consecutive slices of
// near-equal length and returns the median of their ops per second.
func throughput(units []workUnit) float64 {
	g := min(10, len(units))
	var rates []float64
	for k := 0; k < g; k++ {
		var ops, ns float64
		for _, u := range units[k*len(units)/g : (k+1)*len(units)/g] {
			ops += float64(u.ops)
			ns += float64(u.ns)
		}
		rates = append(rates, ratio(ops, ns/1e9))
	}
	return median(rates)
}

// hostInfo is the host block every result carries.
type hostInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	WorkFS     string `json:"work_fs"`
}

func host(workDir string) hostInfo {
	h := hostInfo{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		WorkFS:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err == nil {
		h.WorkFS = fsName(int64(st.Type))
	}
	return h
}

// fsName maps a statfs magic number to the usual filesystem name.
func fsName(magic int64) string {
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlay",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x01021997: "9p",
		0x65735546: "fuse",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}
