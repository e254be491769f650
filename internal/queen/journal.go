package queen

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"waggle/internal/wire"
)

// The journal is the queen's durable task-graph state: a framed file
// (wire.JournalFormat, one JSON event per frame) whose first record is
// the campaign spec and whose later records are shard completions and
// the final merge, each fsynced before the triggering request is
// acknowledged. A restarted queen replays it to resume the campaign
// without re-running finished shards. Leases and snapshots are
// deliberately NOT journaled — they are volatile coordination state,
// reconstructed by the live protocol (a shard in flight when the queen
// died is simply leased again).
//
// A torn final record (queen killed mid-append) follows the frame
// layer's torn-tail rule: the event it described simply did not
// happen, and reopening the journal truncates it before appending.

// journalEvent is one journal record.
type journalEvent struct {
	Ev string `json:"ev"` // "campaign" | "done" | "merged"
	// Spec is set on "campaign".
	Spec *Spec `json:"spec,omitempty"`
	// Shard and Result are set on "done".
	Shard  string          `json:"shard,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// journalWriter appends fsynced events.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (or creates) the journal at path. A fresh file
// gets the campaign record; an existing one must already describe the
// same campaign — NewFromJournal is the path for resuming.
func openJournal(path string, spec Spec) (*journalWriter, error) {
	rec := &journalRecord{results: map[string]json.RawMessage{}}
	f, end, err := wire.OpenAppend(path, wire.JournalFormat, rec.add)
	if err != nil {
		return nil, fmt.Errorf("queen: journal %s: %w", path, err)
	}
	jw := &journalWriter{f: f}
	if end == 0 {
		if err := jw.append(journalEvent{Ev: "campaign", Spec: &spec}); err != nil {
			f.Close()
			return nil, err
		}
		return jw, nil
	}
	if !specEqual(spec, rec.spec) {
		f.Close()
		return nil, fmt.Errorf("queen: journal %s holds a different campaign; resume it with -journal alone or point -journal elsewhere", path)
	}
	return jw, nil
}

func (jw *journalWriter) append(ev journalEvent) error {
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	frame, _ := wire.EncodeFrame(wire.JournalFormat.Next, 0, body)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.f == nil {
		return fmt.Errorf("queen: journal closed")
	}
	if _, err := jw.f.Write(frame); err != nil {
		return fmt.Errorf("queen: journal append: %w", err)
	}
	if err := jw.f.Sync(); err != nil {
		return fmt.Errorf("queen: journal sync: %w", err)
	}
	return nil
}

func (jw *journalWriter) appendDone(shard string, result json.RawMessage) error {
	return jw.append(journalEvent{Ev: "done", Shard: shard, Result: result})
}

func (jw *journalWriter) appendMerged() error {
	return jw.append(journalEvent{Ev: "merged"})
}

func (jw *journalWriter) close() {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.f != nil {
		jw.f.Close()
		jw.f = nil
	}
}

// journalRecord is a replayed journal: the campaign and its completed
// shards.
type journalRecord struct {
	spec    Spec
	results map[string]json.RawMessage
	merged  bool
}

// add replays one journal frame: the campaign record first, then
// completions and the merge.
func (rec *journalRecord) add(fr wire.Frame) error {
	var ev journalEvent
	if err := json.Unmarshal(fr.Body, &ev); err != nil {
		return fmt.Errorf("record at offset %d: %w", fr.Off, err)
	}
	if fr.Off == 0 {
		if ev.Ev != "campaign" || ev.Spec == nil {
			return fmt.Errorf("journal does not start with a campaign record")
		}
		rec.spec = *ev.Spec
		return nil
	}
	switch ev.Ev {
	case "done":
		rec.results[ev.Shard] = ev.Result
	case "merged":
		rec.merged = true
	default:
		return fmt.Errorf("record at offset %d: unexpected event %q", fr.Off, ev.Ev)
	}
	return nil
}

// readJournal replays the journal at path. A torn final record is
// dropped; any other damage is an error.
func readJournal(path string) (*journalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &journalRecord{results: map[string]json.RawMessage{}}
	end, _, err := wire.ScanFrames(data, wire.JournalFormat, rec.add)
	if err != nil {
		return nil, fmt.Errorf("queen: journal %s: %w", path, err)
	}
	if end == 0 {
		return nil, fmt.Errorf("queen: journal %s holds no complete campaign record", path)
	}
	return rec, nil
}
