package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenV1 returns the committed v1 checkpoint. Nothing writes v1 any
// more, so this frozen file is the input of every decode test here.
func goldenV1(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCodecRoundTrip: decoding the committed v1 file loses nothing —
// the decoded checkpoint marshals back to exactly the body bytes the
// envelope checksums.
func TestCodecRoundTrip(t *testing.T) {
	data := goldenV1(t)
	ck, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, env.Body) {
		t.Fatalf("decode round trip mutated the checkpoint:\n got %s\nwant %s", body, env.Body)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := goldenV1(t)
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(first %d bytes): got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeCorrupted(t *testing.T) {
	data := goldenV1(t)
	// Flip one letter inside the body — a key-name character, so the
	// envelope still parses as JSON and carries the right schema; only
	// the checksum can catch this.
	i := bytes.Index(data, []byte(`"body"`)) + len(`"body"`)
	for i < len(data) && (data[i] < 'a' || data[i] > 'z') {
		i++
	}
	corrupt := append([]byte(nil), data...)
	corrupt[i] = '0'
	if _, err := Decode(corrupt); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted body: got %v, want ErrChecksum", err)
	}
}

func TestDecodeSchemaMismatch(t *testing.T) {
	wrong := bytes.Replace(goldenV1(t), []byte(Schema), []byte("waggle-ckpt/v0"), 1)
	_, err := Decode(wrong)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong schema: got %v, want ErrSchema", err)
	}
	if !strings.Contains(err.Error(), "v0") {
		t.Fatalf("schema error should name the offending version: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for _, data := range [][]byte{[]byte("first save"), []byte("second")} {
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		// The temp file must not be left behind.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
			t.Fatalf("directory holds %v, want only run.ckpt", entries)
		}
		// An overwrite replaces the previous contents whole.
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}
}

func TestRecorderMergesRuns(t *testing.T) {
	r := NewRecorder()
	r.Record(Input{T: 1, Op: OpStep})
	r.Record(Input{T: 2, Op: OpStep})
	r.Record(Input{T: 3, Op: OpStep})
	r.Record(Input{T: 4, Op: OpSend, From: 0, To: 1, Payload: []byte("x")})
	r.Record(Input{T: 4, Op: OpStep})
	ops := r.Ops()
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3 (merged step run, send, step): %+v", len(ops), ops)
	}
	if ops[0].Op != OpStep || ops[0].Reps != 3 {
		t.Fatalf("first op = %+v, want 3-rep step run", ops[0])
	}
	if ops[2].Op != OpStep || ops[2].Reps != 0 {
		t.Fatalf("third op = %+v, want fresh single step (Reps 0 = once)", ops[2])
	}
}

func TestRecorderCopiesPayload(t *testing.T) {
	r := NewRecorder()
	p := []byte("live")
	r.Record(Input{Op: OpSend, Payload: p})
	p[0] = 'X'
	if got := string(r.Ops()[0].Payload); got != "live" {
		t.Fatalf("recorder aliased caller's payload: %q", got)
	}
}

func TestRecorderAbsorb(t *testing.T) {
	pre := NewRecorder()
	pre.Record(Input{Op: OpRadioBreak, From: 2})
	main := NewRecorder()
	main.Record(Input{Op: OpSend, From: 0, To: 1})
	main.AbsorbFrom(pre)
	ops := main.Ops()
	if len(ops) != 2 || ops[1].Op != OpRadioBreak {
		t.Fatalf("absorb got %+v, want send then rbreak", ops)
	}
	if pre.Len() != 0 {
		t.Fatalf("absorbed recorder still holds %d ops", pre.Len())
	}
}
