package queen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// The repo has three append-only durable formats — waggle-stream/v1
// (wire.TailStream), the WCD2 checkpoint delta chain
// (wire.DecodeChain), and the queen's journal (readJournal) — all built
// on the one frame layer in internal/wire, so all promise the same
// crash contract: a writer killed mid-append costs exactly the torn
// trailing record, never the file. This suite drives all three readers
// through the same table of mutilations and pins the single torn-tail
// rule:
//
//   - the final record cut mid-magic, mid-length, mid-CRC or mid-body
//     loads as exactly the clean prefix;
//   - a complete final record with a corrupted body is ErrChecksum (it
//     cannot be a crash artifact);
//   - 1–3 stray bytes that cannot start a frame are ErrSchema;
//   - a malformed frame length is ErrTruncated.

// tornFormat adapts one format to the shared table.
type tornFormat struct {
	name string
	// build writes a valid multi-record file into dir and returns its
	// bytes plus the offset where the final appended record starts.
	build func(t *testing.T, dir string) (data []byte, lastRec int64)
	// read parses data and returns a comparable recovered state. torn
	// is the reader's explicit torn-tail report (always false for
	// readers that tolerate silently).
	read func(t *testing.T, dir string, data []byte) (state any, torn bool, err error)
	// reportsTorn: the reader surfaces torn=true on a cut tail.
	reportsTorn bool
}

// framedCuts computes the cut table for a final record laid out as
// magic 4B | uvarint(len) | crc32 ... | body.
func framedCuts(data []byte, lastRec int64) map[string]int64 {
	_, lenN := binary.Uvarint(data[lastRec+4:])
	return map[string]int64{
		"mid-magic":  lastRec + 2,
		"mid-length": lastRec + 4,
		"mid-crc":    lastRec + 4 + int64(lenN) + 2,
		"mid-body":   int64(len(data)) - 1,
	}
}

func tornFormats() []tornFormat {
	return []tornFormat{
		{
			name: "waggle-stream-v1",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.wstream")
				sw, err := wire.OpenStream(path, 3)
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.AppendKeyframe(0, []ckpt.XY{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}, 0, ""); err != nil {
					t.Fatal(err)
				}
				last := int64(0)
				for i := 0; i < 4; i++ {
					last = sw.Offset()
					err := sw.AppendStep(i, []wire.StreamMove{{Robot: i % 3, To: ckpt.XY{X: float64(i + 1), Y: 1}}},
						[]int{i % 3}, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				recs, torn, err := wire.DecodeStream(data)
				return recs, torn, err
			},
			reportsTorn: true,
		},
		{
			name: "wcd2-delta-chain",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.wck")
				s, err := waggle.NewSwarm([]waggle.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}, waggle.WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				cw, err := s.NewCheckpointWriter(path, waggle.CodecDelta)
				if err != nil {
					t.Fatal(err)
				}
				if err := cw.Save(); err != nil { // base frame
					t.Fatal(err)
				}
				last := int64(0)
				for i := 0; i < 3; i++ {
					if err := s.Send(i, (i+1)%3, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					last = st.Size()
					if err := cw.Save(); err != nil {
						t.Fatal(err)
					}
					if !cw.LastSaveWasDelta() {
						t.Fatalf("save %d was not a delta append", i)
					}
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				ck, err := wire.DecodeChain(data)
				return ck, false, err
			},
		},
		{
			name: "queen-journal",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.journal")
				jw, err := openJournal(path, Spec{Kind: "chaos", Seed: 7, Names: []string{"a", "b"}})
				if err != nil {
					t.Fatal(err)
				}
				last := int64(0)
				for _, shard := range []string{"a", "b"} {
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					last = st.Size()
					if err := jw.appendDone(shard, json.RawMessage(`{"ok":true}`)); err != nil {
						t.Fatal(err)
					}
				}
				jw.close()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				path := filepath.Join(dir, "read.journal")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				rec, err := readJournal(path)
				return rec, false, err
			},
		},
	}
}

// TestTornTailSuite is the shared crash-contract table: for every
// format, every cut of the final record loads as exactly the clean
// prefix, a complete-but-corrupt final record is ErrChecksum, stray
// bytes are ErrSchema, and a malformed length is ErrTruncated.
func TestTornTailSuite(t *testing.T) {
	for _, f := range tornFormats() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			data, lastRec := f.build(t, dir)
			if lastRec <= 0 || lastRec >= int64(len(data)) {
				t.Fatalf("build returned lastRec=%d for a %d-byte file", lastRec, len(data))
			}

			full, torn, err := f.read(t, dir, data)
			if err != nil || torn {
				t.Fatalf("clean file: torn=%v err=%v", torn, err)
			}
			want, torn, err := f.read(t, dir, data[:lastRec])
			if err != nil || torn {
				t.Fatalf("clean prefix: torn=%v err=%v", torn, err)
			}
			if reflect.DeepEqual(full, want) {
				t.Fatalf("final record does not change the loaded state; the cuts below would prove nothing")
			}

			for name, cut := range framedCuts(data, lastRec) {
				if cut <= lastRec || cut >= int64(len(data)) {
					t.Fatalf("%s: cut offset %d outside the final record [%d, %d)", name, cut, lastRec, len(data))
				}
				got, torn, err := f.read(t, dir, data[:cut])
				if err != nil {
					t.Errorf("%s (cut at %d): read failed: %v", name, cut, err)
					continue
				}
				if torn != f.reportsTorn {
					t.Errorf("%s: torn=%v, want %v", name, torn, f.reportsTorn)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: cut file did not load as the clean prefix", name)
				}
			}

			mutated := append([]byte(nil), data...)
			mutated[len(data)-1] ^= 0x01
			if _, _, err := f.read(t, dir, mutated); !errors.Is(err, ckpt.ErrChecksum) {
				t.Errorf("corrupt body: err=%v, want ErrChecksum", err)
			}

			for _, stray := range []string{"Z", "ZZ", "ZZZ", "WZ"} {
				if _, _, err := f.read(t, dir, append(data[:len(data):len(data)], stray...)); !errors.Is(err, ckpt.ErrSchema) {
					t.Errorf("stray tail %q: err=%v, want ErrSchema", stray, err)
				}
			}

			// The final record's magic, then a length varint that
			// overflows 64 bits.
			malformed := append(data[:len(data):len(data)], data[lastRec:lastRec+4]...)
			malformed = append(malformed, bytes.Repeat([]byte{0xff}, 10)...)
			malformed = append(malformed, 0x01)
			if _, _, err := f.read(t, dir, malformed); !errors.Is(err, ckpt.ErrTruncated) {
				t.Errorf("malformed length: err=%v, want ErrTruncated", err)
			}
		})
	}
}

// TestJournalRejectsMidFileCorruption pins the boundary of the
// journal's tolerance: only the final record may be torn. Corruption
// one record earlier is an error.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	f := tornFormats()[2]
	if f.name != "queen-journal" {
		t.Fatal("format table reordered")
	}
	data, lastRec := f.build(t, dir)
	mutated := append([]byte(nil), data...)
	mutated[lastRec-2] ^= 0x01 // inside the second-to-last line
	if _, _, err := f.read(t, dir, mutated); err == nil {
		t.Fatal("mid-file corruption was tolerated; only the final line may be torn")
	}
}

// TestJournalReopenAfterTornTail: a queen killed mid-append can be
// restarted more than once. Reopening truncates the torn record, so the
// next appends start on a frame boundary instead of gluing onto the
// fragment, and a second restart reads every completion.
func TestJournalReopenAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queen.journal")
	spec := Spec{Kind: "chaos", Seed: 7, Names: []string{"a", "b", "c"}}
	result := json.RawMessage(`{"ok":true}`)
	appendDone := func(shards ...string) {
		t.Helper()
		jw, err := openJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer jw.close()
		for _, shard := range shards {
			if err := jw.appendDone(shard, result); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendDone("a", "b")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil { // tear "b"
		t.Fatal(err)
	}
	appendDone("b", "c")
	appendDone()
	rec, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range spec.Names {
		if _, ok := rec.results[shard]; !ok {
			t.Errorf("completion of %q lost across the torn-tail restart", shard)
		}
	}
}
