package waggle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"waggle/internal/wire"
)

const (
	goldenChainPath  = "testdata/golden.wck"
	goldenStreamPath = "testdata/golden.wstream"
)

// recordGoldenFrames drives the faulted golden stack with a CodecDelta
// checkpoint writer and a movement stream attached, and returns the
// bytes of both files: a WCK2 base frame followed by WCD2 delta frames,
// and a WST1 stream of header, keyframe, step and events records closed
// by a digest-carrying keyframe.
func recordGoldenFrames(t *testing.T) (chain, stream []byte) {
	t.Helper()
	dir := t.TempDir()
	chainPath := filepath.Join(dir, "golden.wck")
	streamPath := filepath.Join(dir, "golden.wstream")
	st := goldenReplayStack(t)
	cw, err := st.swarm.NewCheckpointWriter(chainPath, CodecDelta)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := st.swarm.NewStreamWriter(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	goldenHead(t, st)
	if err := cw.Save(); err != nil { // base frame
		t.Fatal(err)
	}
	// Deltas: traffic that changes inputs, radio and messenger state
	// without moving a robot (at n=4 any move triggers a rebase).
	deltas := []func() error{
		func() error { return st.radio.Send(1, 3, []byte("R1")) },
		func() error { st.radio.Receive(3); return nil },
		func() error { return st.bm.Send(3, 1, []byte("LATE")) },
	}
	for i, op := range deltas {
		if err := op(); err != nil {
			t.Fatalf("delta op %d: %v", i, err)
		}
		if err := cw.Save(); err != nil {
			t.Fatal(err)
		}
		if !cw.LastSaveWasDelta() {
			t.Fatalf("save %d after the base rebased instead of appending a delta", i+1)
		}
	}
	// Stop the run on a delivery: the stream sees it only at Close,
	// as an out-of-step events record.
	if err := st.swarm.Send(2, 0, []byte("T")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.swarm.RunUntilDelivered(1, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	chain, err = os.ReadFile(chainPath)
	if err != nil {
		t.Fatal(err)
	}
	stream, err = os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	return chain, stream
}

// TestGoldenReplayFrames pins the bytes of the framed formats: a fresh
// recording of the golden stack reproduces the committed delta chain
// and movement stream byte for byte, and re-encoding the committed
// binary checkpoint reproduces its file — reserved engine slot (1, from
// a build that still recorded the engine) included. A failure means
// the frame layout or a body codec drifted; regenerate with
// -update-golden only for an intentional format change.
func TestGoldenReplayFrames(t *testing.T) {
	chain, stream := recordGoldenFrames(t)
	if *updateGolden {
		for path, data := range map[string][]byte{goldenChainPath: chain, goldenStreamPath: stream} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("golden frames regenerated: %s (%d B), %s (%d B)", goldenChainPath, len(chain), goldenStreamPath, len(stream))
		return
	}
	for path, got := range map[string][]byte{goldenChainPath: chain, goldenStreamPath: stream} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run `go test -run TestGoldenReplayFrames -update-golden .`): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fresh recording differs from the committed file (%d vs %d bytes)", path, len(got), len(want))
		}
	}

	recs, torn, err := wire.DecodeStream(stream)
	if err != nil || torn {
		t.Fatalf("golden stream: torn=%v err=%v", torn, err)
	}
	kinds := map[string]int{}
	for _, rec := range recs {
		kinds[rec.Kind]++
	}
	for _, k := range []string{wire.StreamHeader, wire.StreamKeyframe, wire.StreamStep, wire.StreamEvents} {
		if kinds[k] == 0 {
			t.Errorf("golden stream has no %s record (kinds %v)", k, kinds)
		}
	}
	if last := recs[len(recs)-1]; last.Kind != wire.StreamKeyframe || last.Digest == "" {
		t.Errorf("golden stream does not close with a digest keyframe: %+v", last)
	}

	bin, err := os.ReadFile(goldenCkptBinPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(goldenCkptBinPath)
	if err != nil {
		t.Fatal(err)
	}
	again, err := wire.Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, bin) {
		t.Errorf("re-encoding %s does not reproduce the file (%d vs %d bytes)", goldenCkptBinPath, len(again), len(bin))
	}
}
