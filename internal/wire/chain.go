package wire

import (
	"fmt"

	"waggle/internal/ckpt"
)

// A v2 checkpoint file is one WCK2 base frame followed by zero or more
// WCD2 delta frames (frame.go). Each delta's link is the body CRC of
// the frame before it, chaining the delta to exactly the state it was
// computed against. (The restore-time recapture check would catch a
// spliced chain too — the link just turns a late, opaque mismatch into
// an immediate, typed one.)
//
// A torn trailing delta is the signature of a crash during an append:
// the chain loads as of the last complete frame, matching the atomicity
// the rename-based base save promises. A file without a complete base
// frame is ErrTruncated.

// EncodeBaseFrame serializes a checkpoint as one base frame and returns
// the frame plus the body CRC (the prevCRC for the first appended
// delta).
func EncodeBaseFrame(ck *ckpt.Checkpoint) ([]byte, uint32, error) {
	body, err := encodeCheckpointBody(ck)
	if err != nil {
		return nil, 0, err
	}
	frame, crc := EncodeFrame(magicBase, 0, body)
	return frame, crc, nil
}

// EncodeDeltaFrame serializes a delta (computed against the folded
// state prev) as one appendable frame, linked to the preceding frame's
// body CRC. It returns the frame plus this frame's body CRC.
func EncodeDeltaFrame(d *Delta, prev *ckpt.State, prevCRC uint32) ([]byte, uint32, error) {
	body, err := encodeDeltaBody(d, prev)
	if err != nil {
		return nil, 0, err
	}
	frame, crc := EncodeFrame(magicDelta, prevCRC, body)
	return frame, crc, nil
}

// DecodeChain parses a base frame plus appended delta frames and folds
// them into one checkpoint.
func DecodeChain(data []byte) (*ckpt.Checkpoint, error) {
	var ck *ckpt.Checkpoint
	_, _, err := ScanFrames(data, chainFormat, func(fr Frame) error {
		if ck == nil {
			var err error
			ck, err = decodeCheckpointBody(fr.Body)
			return err
		}
		d, err := decodeDeltaBody(fr.Body, &ck.State)
		if err != nil {
			return err
		}
		return ApplyDelta(ck, d)
	})
	if err != nil {
		return nil, err
	}
	if ck == nil {
		return nil, fmt.Errorf("%w: base frame extends past end of file", ckpt.ErrTruncated)
	}
	return ck, nil
}
