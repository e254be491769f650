package queen

import (
	"encoding/json"
	"maps"
	"reflect"
	"testing"

	"waggle/internal/wire"
)

// FuzzJournal feeds arbitrary bytes to the replay readJournal runs
// (wire.ScanFrames over journalRecord.add). Replay must never panic; a
// journal cut at a frame boundary must replay to exactly the events
// before the cut; and a journal whose first record is not a campaign
// must be an error.
func FuzzJournal(f *testing.F) {
	var journal, doneFirst []byte
	for k, ev := range []string{
		`{"ev":"campaign","spec":{"kind":"chaos","seed":1,"names":["crash-sync","radio-outage"]}}`,
		`{"ev":"done","shard":"crash-sync","result":{"delivered":1}}`,
		`{"ev":"done","shard":"radio-outage","result":{"delivered":2}}`,
		`{"ev":"merged"}`,
	} {
		frame, _ := wire.EncodeFrame(wire.JournalFormat.Next, 0, []byte(ev))
		if journal = append(journal, frame...); k == 1 {
			doneFirst = frame // a journal whose first record is a completion
		}
	}
	for _, seed := range [][]byte{journal, journal[:3], journal[:len(journal)/2], journal[:len(journal)-1], doneFirst} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Replay the whole input, keeping the record after each frame.
		rec := &journalRecord{results: map[string]json.RawMessage{}}
		var ends []int64
		var states []journalRecord
		var firstBody []byte
		_, _, err := wire.ScanFrames(data, wire.JournalFormat, func(fr wire.Frame) error {
			if fr.Off == 0 {
				firstBody = fr.Body
			}
			if err := rec.add(fr); err != nil {
				return err
			}
			ends = append(ends, fr.Next)
			states = append(states, journalRecord{spec: rec.spec, results: maps.Clone(rec.results), merged: rec.merged})
			return nil
		})
		if err != nil {
			return
		}
		if firstBody != nil {
			var ev journalEvent
			if json.Unmarshal(firstBody, &ev) != nil || ev.Ev != "campaign" || ev.Spec == nil {
				t.Fatalf("journal starting with %q replayed without error", firstBody)
			}
		}
		for k, end := range ends {
			cut := &journalRecord{results: map[string]json.RawMessage{}}
			got, torn, err := wire.ScanFrames(data[:end], wire.JournalFormat, cut.add)
			if err != nil || torn || got != end {
				t.Fatalf("cut after frame %d: end %d torn %v err %v, want a clean %d", k, got, torn, err, end)
			}
			if !reflect.DeepEqual(*cut, states[k]) {
				t.Fatalf("cut after frame %d replays to %+v, want %+v", k, *cut, states[k])
			}
		}
	})
}
