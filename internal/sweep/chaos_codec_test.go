package sweep

import (
	"reflect"
	"testing"

	"waggle"
)

// TestChaosResumedAllCodecs is the cross-codec determinism property:
// for EVERY chaos scenario, a run killed mid-plan and restored from a
// checkpoint — saved as a v2 binary snapshot, or as a real base +
// delta-frame chain written by the periodic CheckpointWriter —
// continues byte-identically to the uninterrupted run. The restore
// path itself re-captures state and requires deep equality, so a fold
// or codec bug fails the restore rather than corrupting the
// continuation.
func TestChaosResumedAllCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario × codec sweep")
	}
	codecs := []waggle.CheckpointCodec{waggle.CodecBinary, waggle.CodecDelta}
	for _, sc := range ChaosScenarios(1) {
		killAt := sc.Budget / 2
		want, err := RunChaosScenario(sc, true)
		if err != nil {
			t.Fatalf("%s: baseline: %v", sc.Name, err)
		}
		for _, codec := range codecs {
			got, err := RunChaosScenarioResumedCodec(sc, killAt, codec)
			if err != nil {
				t.Fatalf("%s (codec %v): %v", sc.Name, codec, err)
			}
			if got.TraceCSV == "" || got.TraceCSV != want.TraceCSV {
				t.Errorf("%s (codec %v): resumed trace differs from the uninterrupted run", sc.Name, codec)
			}
			gotCopy, wantCopy := *got, *want
			gotCopy.TraceCSV, wantCopy.TraceCSV = "", ""
			if !reflect.DeepEqual(&gotCopy, &wantCopy) {
				t.Errorf("%s (codec %v): resumed report differs:\n%+v\nvs\n%+v", sc.Name, codec, got, want)
			}
		}
	}
}
