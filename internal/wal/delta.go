package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Incremental checkpoints (DESIGN.md §16). A full checkpoint rewrites
// the whole store — tens of megabytes per cycle even when only a few
// hundred commits landed since the last one. An incremental checkpoint
// instead folds the live log into one small delta file and truncates
// the log, leaving the full checkpoint untouched:
//
//	checkpoint.bin          — the full binary base
//	checkpoint.delta.000001 — log fold #1 since the base
//	checkpoint.delta.000002 — log fold #2
//	wal.log                 — records since the last fold
//
// Recovery restores the base, replays each delta in chain order, then
// replays the log tail. A delta file is a 20-byte header followed by
// ordinary WAL record frames (same framing, same decoder):
//
//	header := "PGRDFDL1" | u32le baseCRC | u32le chainIndex | u32le crc32(header)
//
// baseCRC is the CRC32 of the full checkpoint file the delta extends;
// chainIndex numbers deltas 1..N against that base. Both are how open
// tells a live chain from a stale one: a crash window can leave deltas
// from a previous base on disk (a full checkpoint publishes its file
// before removing old deltas), and those are detected by baseCRC or
// index mismatch and removed — whereas a published delta whose own
// header or frames fail their CRCs was damaged at rest, which is
// ErrCheckpointCorrupt, never silent removal (deltas are published by
// tmp+fsync+rename, so torn delta files cannot occur).
//
// Folding is last-op-wins per (model, quad): of all journaled ops for
// one quad in one model, only the final one determines recovered state,
// and it is emitted at the position the key first appeared. Model
// creation order must survive the fold too (model IDs — and therefore
// snapshot section order — follow creation order), so the fold is
// preceded by a preamble: for every model the log's inserts created or
// touched, an insert+delete pair of that model's first-inserted quad,
// in first-insert order. The insert pins the model's creation slot;
// the delete immediately retracts the quad, whose true final state is
// settled by its own folded op later in the stream. Replaying a folded
// delta is idempotent, so the crash window between publishing a delta
// and truncating the log (where recovery replays both) converges to
// the same store.

const (
	deltaMagic     = "PGRDFDL1"
	deltaPrefix    = "checkpoint.delta."
	deltaHeaderLen = len(deltaMagic) + 12

	// maxDeltaChain caps the chain length before the next incremental
	// request is promoted to a full checkpoint: recovery replays the
	// whole chain, so an unbounded chain would trade checkpoint cost
	// for unbounded recovery cost.
	maxDeltaChain = 64

	// minDeltaChainBytes keeps a chain under this size incremental even
	// when it exceeds half the full checkpoint (the promotion rule):
	// against a small base the ratio trips immediately, yet replaying a
	// sub-megabyte chain costs nothing at recovery.
	minDeltaChainBytes = 1 << 20

	// deltaChunkBytes bounds one folded record frame, well under the
	// frame decoder's maxRecordLen.
	deltaChunkBytes = 8 << 20
	// deltaChunkOps bounds ops per folded record frame.
	deltaChunkOps = 4096
)

// foldOps collapses the journaled batches to the minimal op sequence
// with the same replay outcome: a model-creation preamble followed by
// the last op per (model, quad) key in first-appearance order.
func foldOps(batches []Batch) []Op {
	final := make(map[string]int)
	var folded []Op
	firstInsert := make(map[string]Op)
	var modelOrder []string
	for _, b := range batches {
		for _, op := range b.Ops {
			if op.Kind == OpInsert {
				if _, seen := firstInsert[op.Model]; !seen {
					firstInsert[op.Model] = op
					modelOrder = append(modelOrder, op.Model)
				}
			}
			key := op.Model + "\x00" + op.Quad.String()
			if at, seen := final[key]; seen {
				folded[at] = op
			} else {
				final[key] = len(folded)
				folded = append(folded, op)
			}
		}
	}
	ops := make([]Op, 0, 2*len(modelOrder)+len(folded))
	for _, m := range modelOrder {
		fi := firstInsert[m]
		ops = append(ops,
			Op{Kind: OpInsert, Model: m, Quad: fi.Quad},
			Op{Kind: OpDelete, Model: m, Quad: fi.Quad})
	}
	return append(ops, folded...)
}

// encodeDelta serializes a delta file: header, then the folded ops
// chunked into standard WAL record frames.
func encodeDelta(baseCRC, index uint32, ops []Op, startSeq uint64) ([]byte, error) {
	out := make([]byte, 0, 4096)
	out = append(out, deltaMagic...)
	out = binary.LittleEndian.AppendUint32(out, baseCRC)
	out = binary.LittleEndian.AppendUint32(out, index)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))

	seq := startSeq
	var chunk []Op
	est := 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		frame, err := encodeBatch(seq, Batch{Ops: chunk})
		if err != nil {
			return err
		}
		out = append(out, frame...)
		seq++
		chunk, est = chunk[:0], 0
		return nil
	}
	for _, op := range ops {
		cost := 64 + len(op.Model) + len(op.Quad.S.Value) + len(op.Quad.P.Value) +
			len(op.Quad.O.Value) + len(op.Quad.O.Datatype) + len(op.Quad.G.Value)
		if len(chunk) > 0 && (est+cost > deltaChunkBytes || len(chunk) >= deltaChunkOps) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		chunk = append(chunk, op)
		est += cost
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeDeltaHeader validates a delta file header and returns the base
// CRC and chain index it claims.
func decodeDeltaHeader(data []byte) (baseCRC, index uint32, err error) {
	if len(data) < deltaHeaderLen {
		return 0, 0, fmt.Errorf("delta header truncated at %d bytes", len(data))
	}
	if string(data[:len(deltaMagic)]) != deltaMagic {
		return 0, 0, fmt.Errorf("delta magic mismatch")
	}
	hdrEnd := len(deltaMagic) + 8
	want := binary.LittleEndian.Uint32(data[hdrEnd:])
	if crc32.ChecksumIEEE(data[:hdrEnd]) != want {
		return 0, 0, fmt.Errorf("delta header CRC mismatch")
	}
	baseCRC = binary.LittleEndian.Uint32(data[len(deltaMagic):])
	index = binary.LittleEndian.Uint32(data[len(deltaMagic)+4:])
	return baseCRC, index, nil
}

// deltaName returns the file name of chain entry i.
func deltaName(i uint32) string {
	return fmt.Sprintf("%s%06d", deltaPrefix, i)
}

// listDeltas returns the delta file names present in dir, sorted by
// chain index. Files matching the prefix with a non-numeric suffix are
// not ours and are left alone.
func listDeltas(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list deltas: %w", err)
	}
	type numbered struct {
		name string
		n    int
	}
	var found []numbered
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, deltaPrefix) {
			continue
		}
		n, err := strconv.Atoi(name[len(deltaPrefix):])
		if err != nil || n < 0 {
			continue
		}
		found = append(found, numbered{name: name, n: n})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	names := make([]string, len(found))
	for i, f := range found {
		names[i] = f.name
	}
	return names, nil
}

// loadDeltas replays the delta chain rooted at the checkpoint with CRC
// baseCRC through apply, in chain order. Stale deltas — wrong base,
// broken index contiguity, or any delta when the base is not a binary
// checkpoint — are removed (they are leftovers of a crash window
// between a full checkpoint publishing and cleaning up). A delta that
// belongs to the chain but fails its own CRCs is ErrCheckpointCorrupt.
func loadDeltas(dir string, baseCRC uint32, haveBase bool, apply func(Batch) error) (chainLen int, chainBytes int64, err error) {
	names, err := listDeltas(dir)
	if err != nil {
		return 0, 0, err
	}
	live := haveBase
	expect := uint32(1)
	removed := false
	for _, name := range names {
		path := filepath.Join(dir, name)
		if live {
			data, err := os.ReadFile(path)
			if err != nil {
				return 0, 0, fmt.Errorf("wal: read delta: %w", err)
			}
			base, index, derr := decodeDeltaHeader(data)
			if derr != nil {
				return 0, 0, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, name, derr)
			}
			if base == baseCRC && index == expect {
				body := data[deltaHeaderLen:]
				good, _, err := readRecords(bytes.NewReader(body), func(_ uint64, b Batch) error {
					return apply(b)
				})
				if err != nil {
					return 0, 0, fmt.Errorf("wal: replay delta %s: %w", name, err)
				}
				if good != int64(len(body)) {
					// readRecords stops silently at a torn frame; in a
					// log that means crash truncation, but deltas are
					// published atomically, so a short decode is damage.
					return 0, 0, fmt.Errorf("%w: %s: undecodable frame at offset %d", ErrCheckpointCorrupt, name, deltaHeaderLen+int(good))
				}
				chainLen++
				chainBytes += int64(len(data))
				expect++
				continue
			}
			// Wrong base or a gap: this delta and everything after it
			// belong to a superseded chain.
			live = false
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, 0, fmt.Errorf("wal: remove stale delta: %w", err)
		}
		removed = true
	}
	if removed {
		syncDir(dir)
	}
	return chainLen, chainBytes, nil
}

// removeSuperseded deletes the checkpoint artifacts a just-published
// full checkpoint replaces: every delta (their contents are folded into
// the new full file). Called before
// the log truncation — if any removal fails the checkpoint attempt is
// aborted and the untruncated log keeps recovery correct.
func removeSuperseded(dir string) error {
	deltas, err := listDeltas(dir)
	if err != nil {
		return err
	}
	for _, name := range deltas {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: remove superseded checkpoint file: %w", err)
		}
	}
	syncDir(dir)
	return nil
}

// crcTee computes the CRC32 of everything written through it — how a
// binary checkpoint learns its own file CRC (the root of the delta
// chain) without re-reading the file.
type crcTee struct {
	w   interface{ Write([]byte) (int, error) }
	crc uint32
}

func (t *crcTee) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.crc = crc32.Update(t.crc, crc32.IEEETable, p[:n])
	return n, err
}
