package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/ntriples"
)

// Record framing (all integers little-endian):
//
//	frame   := u32 payloadLen | u32 crc32(IEEE, payload) | payload
//	payload := u64 seq | u32 nops | op*
//	op      := u8 kind | u16 len(model) | model | u32 len(line) | line
//
// where line is the quad in N-Quads syntax (one line, no newline). The
// length prefix bounds the read, the CRC detects torn and bit-rotted
// tails, and the N-Quads body keeps records independently decodable by
// the same parser the bulk-load path uses.

const (
	frameHeaderLen = 8
	// maxRecordLen bounds one record so a corrupt length prefix cannot
	// drive a multi-gigabyte allocation during replay.
	maxRecordLen = 64 << 20
)

// errTorn marks the truncation point during replay: the final record is
// incomplete or fails its checksum. It never escapes Open — the tail is
// dropped and recovery succeeds with what was durably framed.
var errTorn = fmt.Errorf("wal: torn or corrupt record")

// encodeBatch serializes a batch under the given sequence number.
func encodeBatch(seq uint64, b Batch) ([]byte, error) {
	var payload []byte
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(b.Ops)))
	for _, op := range b.Ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return nil, fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
		if err := op.Quad.Validate(); err != nil {
			return nil, fmt.Errorf("wal: refusing to journal invalid quad: %w", err)
		}
		if len(op.Model) > 0xFFFF {
			return nil, fmt.Errorf("wal: model name longer than 65535 bytes")
		}
		line := op.Quad.String() + " ."
		payload = append(payload, byte(op.Kind))
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(op.Model)))
		payload = append(payload, op.Model...)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(line)))
		payload = append(payload, line...)
	}
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(payload), maxRecordLen)
	}
	frame := make([]byte, 0, frameHeaderLen+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	return frame, nil
}

// decodePayload parses one record payload back into its batch.
func decodePayload(payload []byte) (seq uint64, b Batch, err error) {
	if len(payload) < 12 {
		return 0, Batch{}, errTorn
	}
	seq = binary.LittleEndian.Uint64(payload)
	nops := binary.LittleEndian.Uint32(payload[8:])
	rest := payload[12:]
	if nops > 0 {
		// An op takes at least 7 bytes, which bounds a corrupt count.
		b.Ops = make([]Op, 0, min(int(nops), len(rest)/7))
	}
	for i := uint32(0); i < nops; i++ {
		if len(rest) < 3 {
			return 0, Batch{}, errTorn
		}
		kind := OpKind(rest[0])
		if kind != OpInsert && kind != OpDelete {
			return 0, Batch{}, errTorn
		}
		mlen := int(binary.LittleEndian.Uint16(rest[1:]))
		rest = rest[3:]
		if len(rest) < mlen+4 {
			return 0, Batch{}, errTorn
		}
		model := string(rest[:mlen])
		llen := int(binary.LittleEndian.Uint32(rest[mlen:]))
		rest = rest[mlen+4:]
		if len(rest) < llen {
			return 0, Batch{}, errTorn
		}
		q, err := ntriples.ParseQuad(string(rest[:llen]))
		if err != nil {
			return 0, Batch{}, errTorn
		}
		rest = rest[llen:]
		b.Ops = append(b.Ops, Op{Kind: kind, Model: model, Quad: q})
	}
	if len(rest) != 0 {
		return 0, Batch{}, errTorn
	}
	return seq, b, nil
}

// readRecords decodes every complete, checksummed record from r,
// returning the batches, the byte offset just past the last good
// record, and the last sequence number seen. A torn or corrupt tail
// stops decoding without error (the caller truncates there); only real
// read errors are returned.
func readRecords(r io.Reader, yield func(seq uint64, b Batch) error) (good int64, lastSeq uint64, err error) {
	br := &countReader{r: r}
	header := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			return good, lastSeq, nil // clean EOF or torn header: stop
		}
		plen := binary.LittleEndian.Uint32(header)
		crc := binary.LittleEndian.Uint32(header[4:])
		if plen > maxRecordLen {
			return good, lastSeq, nil // corrupt length prefix
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, lastSeq, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return good, lastSeq, nil // bit rot or torn rewrite
		}
		seq, b, err := decodePayload(payload)
		if err != nil {
			return good, lastSeq, nil // framed but undecodable: treat as torn
		}
		if yield != nil {
			if err := yield(seq, b); err != nil {
				return good, lastSeq, err
			}
		}
		good = br.n
		lastSeq = seq
	}
}

// countReader tracks how many bytes have been consumed from r.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
