package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"

	"waggle/internal/ckpt"
)

// The frame layer. Every append-only durable file in waggle — the
// checkpoint chain (WCK2 base + WCD2 deltas), the movement stream
// (WST1) and the queen's campaign journal (WQJ1) — is a sequence of
// frames:
//
//	magic 4B | uvarint(len(body)) | crc32(body) LE32 | link LE32 | body
//
// The link is present only for linked magics (WCD2): it is the body CRC
// of the frame before, so a frame appended to the wrong file, or a
// dropped middle frame, fails with ErrChecksum instead of folding a
// plausible-but-wrong state.
//
// Writers append each frame with a single write(2), so a crash leaves
// a clean prefix plus at most one torn frame. One torn-tail rule
// follows from that, applied identically to every format:
//
//   - a trailing fragment that is a prefix of a valid frame (a cut
//     magic, length, CRC, link or body) is a torn tail: the file reads
//     as its clean prefix, and OpenAppend truncates it away;
//   - a complete frame whose body fails its CRC, or whose link names a
//     different predecessor, is ErrChecksum;
//   - bytes that cannot start a frame of the expected magic are
//     ErrSchema, even a 1–3-byte tail;
//   - a malformed length (a varint overflow, or zero — no format
//     writes an empty body) is ErrTruncated.

// Magic is a frame type: the four-byte tag that opens the frame, and
// whether its header carries the link to the previous frame's CRC.
type Magic struct {
	Tag    string
	Linked bool
}

// Format is one framed file: the magic of its first frame and the
// magic of every frame after it.
type Format struct{ First, Next Magic }

var (
	magicBase   = Magic{Tag: "WCK2"}
	magicDelta  = Magic{Tag: "WCD2", Linked: true}
	magicStream = Magic{Tag: "WST1"}

	chainFormat  = Format{First: magicBase, Next: magicDelta}
	streamFormat = Format{First: magicStream, Next: magicStream}

	// JournalFormat is the queen's campaign journal (internal/queen):
	// WQJ1 frames with JSON bodies.
	JournalFormat = Format{First: Magic{Tag: "WQJ1"}, Next: Magic{Tag: "WQJ1"}}
)

// Detect reports whether data starts with a v2 checkpoint's base
// frame. The magic doubles as the format version: an incompatible
// future layout gets a new magic, and old readers fail with ErrSchema
// instead of misparsing.
func Detect(data []byte) bool {
	return len(data) >= len(magicBase.Tag) && string(data[:len(magicBase.Tag)]) == magicBase.Tag
}

// EncodeFrame returns one frame carrying body, and the body CRC. link
// is written only for linked magics.
func EncodeFrame(m Magic, link uint32, body []byte) ([]byte, uint32) {
	crc := crc32.ChecksumIEEE(body)
	frame := make([]byte, 0, len(m.Tag)+binary.MaxVarintLen64+8+len(body))
	frame = append(frame, m.Tag...)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	if m.Linked {
		frame = binary.LittleEndian.AppendUint32(frame, link)
	}
	return append(frame, body...), crc
}

// Frame is one complete, CRC-valid frame found by ScanFrames.
type Frame struct {
	// Off and Next are the frame's byte bounds in the scanned data.
	Off, Next int64
	// Body aliases the scanned data.
	Body []byte
}

// ScanFrames walks data from its start under the torn-tail rule,
// calling fn (when non-nil) on each complete frame in order; an error
// from fn stops the scan and is returned as is. end is the offset of
// the clean end: len(data), or the start of a torn tail, which torn
// reports.
func ScanFrames(data []byte, f Format, fn func(Frame) error) (end int64, torn bool, err error) {
	var prevCRC uint32
	off := 0
	for off < len(data) {
		m := f.Next
		if off == 0 {
			m = f.First
		}
		rest := data[off:]
		if len(rest) < len(m.Tag) {
			if string(rest) == m.Tag[:len(rest)] {
				return int64(off), true, nil
			}
			return int64(off), false, fmt.Errorf("%w: %d stray bytes at offset %d, want a %s frame", ckpt.ErrSchema, len(rest), off, m.Tag)
		}
		if string(rest[:len(m.Tag)]) != m.Tag {
			return int64(off), false, fmt.Errorf("%w: magic %q at offset %d, want %s", ckpt.ErrSchema, rest[:len(m.Tag)], off, m.Tag)
		}
		bodyLen, n := binary.Uvarint(rest[len(m.Tag):])
		if n == 0 {
			return int64(off), true, nil
		}
		if n < 0 || bodyLen == 0 {
			return int64(off), false, fmt.Errorf("%w: malformed %s frame length at offset %d", ckpt.ErrTruncated, m.Tag, off)
		}
		crcAt := len(m.Tag) + n
		bodyAt := crcAt + 4
		if m.Linked {
			bodyAt += 4
		}
		if len(rest) < bodyAt || uint64(len(rest)-bodyAt) < bodyLen {
			return int64(off), true, nil
		}
		body := rest[bodyAt : bodyAt+int(bodyLen)]
		crc := crc32.ChecksumIEEE(body)
		if crc != binary.LittleEndian.Uint32(rest[crcAt:]) {
			return int64(off), false, fmt.Errorf("%w: %s frame at offset %d does not match its CRC32", ckpt.ErrChecksum, m.Tag, off)
		}
		if m.Linked && binary.LittleEndian.Uint32(rest[crcAt+4:]) != prevCRC {
			return int64(off), false, fmt.Errorf("%w: %s frame at offset %d links to a different predecessor", ckpt.ErrChecksum, m.Tag, off)
		}
		next := off + bodyAt + int(bodyLen)
		if fn != nil {
			if err := fn(Frame{Off: int64(off), Next: int64(next), Body: body}); err != nil {
				return int64(off), false, err
			}
		}
		prevCRC = crc
		off = next
	}
	return int64(off), false, nil
}

// OpenAppend opens path for appending frames of format f, creating the
// file when absent. An existing file is scanned first — fn sees every
// complete frame and may refuse the file — and its torn tail, if any,
// is truncated, so the next append starts on a frame boundary. end is
// the file size after the truncation; 0 means the file holds no
// complete frame and the caller writes its first one.
func OpenAppend(path string, f Format, fn func(Frame) error) (file *os.File, end int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, err
	}
	end, _, err = ScanFrames(data, f, fn)
	if err != nil {
		return nil, 0, err
	}
	file, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if end != int64(len(data)) {
		if err := file.Truncate(end); err != nil {
			file.Close()
			return nil, 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	return file, end, nil
}
