package wire

import (
	"errors"
	"os"
	"strings"
	"testing"

	"waggle/internal/ckpt"
)

// FuzzDecodeCheckpoint hammers the binary decoder with arbitrary
// bytes. The contract under attack: Decode never panics, never
// allocates proportionally to a length claimed by the input (only to
// the input's actual size), and every failure is one of the typed
// sentinels — ErrSchema, ErrChecksum, ErrTruncated — so callers can
// distinguish "wrong format" from "damaged file" from "torn write".
func FuzzDecodeCheckpoint(f *testing.F) {
	// Seed corpus: valid encodings of increasingly-populated
	// checkpoints plus a multi-frame delta chain, so mutation starts
	// from deep inside the format instead of rediscovering the magic.
	small := &ckpt.Checkpoint{
		Config: ckpt.Config{Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		State: ckpt.State{
			Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}},
			Endpoints: []ckpt.EndpointState{{Idle: true}, {Idle: true}},
		},
	}
	if data, err := Encode(small); err == nil {
		f.Add(data)
	}
	full := fullCheckpoint()
	if data, err := Encode(full); err == nil {
		f.Add(data)
	}
	if base, crc, err := EncodeBaseFrame(full); err == nil {
		cur := mutateCheckpoint(full)
		if d, err := ComputeDelta(full, cur); err == nil {
			if frame, _, err := EncodeDeltaFrame(d, &full.State, crc); err == nil {
				f.Add(append(append([]byte(nil), base...), frame...))
			}
		}
	}
	f.Add([]byte(magicBase.Tag))
	f.Add([]byte(magicDelta.Tag))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ckpt.ErrSchema) && !errors.Is(err, ckpt.ErrChecksum) && !errors.Is(err, ckpt.ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must hand back an internally consistent
		// checkpoint: re-encoding it must work (the encoder validates
		// ascending indices and schema invariants as it goes).
		if _, err := Encode(ck); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
	})
}

// frameSeeds returns real framed files for the fuzz corpora: the
// committed golden delta chain, a movement stream cut from the golden
// one, and a queen journal as the queen writes it (JSON events in WQJ1
// frames).
func frameSeeds(f *testing.F) (chain, stream, journal []byte) {
	f.Helper()
	chain, err := os.ReadFile("../../testdata/golden.wck")
	if err != nil {
		f.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden.wstream")
	if err != nil {
		f.Fatal(err)
	}
	// Header, keyframe and three steps, then the closing events record
	// and digest keyframe: every record kind in a few hundred bytes,
	// which keeps minimization fast.
	recs, _, _, err := TailStream(golden, 0, 0)
	if err != nil || len(recs) < 7 {
		f.Fatalf("golden stream: %d records, err %v", len(recs), err)
	}
	stream = append(golden[:recs[4].Next:recs[4].Next], golden[recs[len(recs)-2].Offset:]...)
	for _, ev := range []string{
		`{"ev":"campaign","spec":{"kind":"chaos","seed":7,"names":["a","b"]}}`,
		`{"ev":"done","shard":"a","result":{"ok":true}}`,
		`{"ev":"done","shard":"b","result":{"ok":true}}`,
		`{"ev":"merged"}`,
	} {
		frame, _ := EncodeFrame(JournalFormat.Next, 0, []byte(ev))
		journal = append(journal, frame...)
	}
	return chain, stream, journal
}

func typedFrameErr(err error) bool {
	return errors.Is(err, ckpt.ErrSchema) || errors.Is(err, ckpt.ErrChecksum) || errors.Is(err, ckpt.ErrTruncated)
}

// FuzzScanFrames hammers the frame scanner under every format. The
// contract: no panic; every error is ErrSchema, ErrChecksum or
// ErrTruncated; complete frames tile the data from offset 0 up to the
// reported clean end; and that clean end scans again with no torn tail.
func FuzzScanFrames(f *testing.F) {
	chain, stream, journal := frameSeeds(f)
	for _, seed := range [][]byte{chain, stream, journal, chain[:len(chain)-5], stream[:9], {}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{chainFormat, streamFormat, JournalFormat} {
			var tiled int64
			end, torn, err := ScanFrames(data, format, func(fr Frame) error {
				if fr.Off != tiled || fr.Next <= fr.Off || len(fr.Body) == 0 {
					t.Fatalf("%s: frame [%d, %d) with %d-byte body does not continue at %d",
						format.First.Tag, fr.Off, fr.Next, len(fr.Body), tiled)
				}
				tiled = fr.Next
				return nil
			})
			if err != nil {
				if !typedFrameErr(err) {
					t.Fatalf("%s: untyped scan error: %v", format.First.Tag, err)
				}
				continue
			}
			if end != tiled || end > int64(len(data)) || torn == (end == int64(len(data))) {
				t.Fatalf("%s: end %d, torn %v, frames tile %d of %d bytes", format.First.Tag, end, torn, tiled, len(data))
			}
			again, tornAgain, err := ScanFrames(data[:end], format, nil)
			if err != nil || tornAgain || again != end {
				t.Fatalf("%s: clean end %d rescans as end %d torn %v err %v", format.First.Tag, end, again, tornAgain, err)
			}
		}
	})
}

// FuzzTailStream hammers the stream decoder from arbitrary offsets.
// The contract: no panic; every error is ErrSchema, ErrChecksum or
// ErrTruncated, or names an offset that is not a record boundary; and
// the clean end of a full decode decodes again, with no torn tail, to
// the same records.
func FuzzTailStream(f *testing.F) {
	chain, stream, journal := frameSeeds(f)
	recs, _, _, err := TailStream(stream, 0, 0)
	if err != nil || len(recs) != 7 {
		f.Fatalf("seed stream: %d records, err %v", len(recs), err)
	}
	f.Add(stream, int64(0), 0)
	f.Add(stream, int64(-1), 0)
	f.Add(stream, recs[2].Offset, 2)
	f.Add(stream, recs[2].Offset+1, 0)
	f.Add(stream[:len(stream)-3], int64(-1), 1)
	f.Add(chain, int64(0), 0)
	f.Add(journal, int64(0), 0)
	f.Fuzz(func(t *testing.T, data []byte, offset int64, max int) {
		if _, _, _, err := TailStream(data, offset, max); err != nil &&
			!typedFrameErr(err) && !strings.Contains(err.Error(), "not a record boundary") {
			t.Fatalf("untyped tail error at offset %d: %v", offset, err)
		}
		recs, end, _, err := TailStream(data, 0, 0)
		if err != nil {
			if !typedFrameErr(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, endAgain, torn, err := TailStream(data[:end], 0, 0)
		if err != nil || torn || endAgain != end || len(again) != len(recs) {
			t.Fatalf("clean end %d redecodes as %d records to %d, torn %v, err %v (want %d records)",
				end, len(again), endAgain, torn, err, len(recs))
		}
	})
}
