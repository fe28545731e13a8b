package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// corpusBatches is the canonical 3-record log behind the pinned
// torn-write corpus in testdata/torn. Changing it invalidates the
// corpus; regenerate with UPDATE_TORN_CORPUS=1 go test ./internal/wal.
func corpusBatches() []Batch {
	v1 := rdf.NewIRI("http://pg/v1")
	v2 := rdf.NewIRI("http://pg/v2")
	e3 := rdf.NewIRI("http://pg/e3")
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	name := rdf.NewIRI(rdf.KeyNS + "name")
	since := rdf.NewIRI(rdf.KeyNS + "since")
	return []Batch{
		{Ops: []Op{
			{Kind: OpInsert, Model: "fig1", Quad: rdf.NewQuad(v1, follows, v2, e3)},
			{Kind: OpInsert, Model: "fig1", Quad: rdf.NewQuad(e3, since, rdf.NewInt(2007), e3)},
		}},
		{Ops: []Op{
			{Kind: OpInsert, Model: "fig1", Quad: rdf.Quad{S: v1, P: name, O: rdf.NewLiteral("Amy")}},
		}},
		{Ops: []Op{
			{Kind: OpDelete, Model: "fig1", Quad: rdf.NewQuad(v1, follows, v2, e3)},
			{Kind: OpInsert, Model: "aux", Quad: rdf.Quad{S: v2, P: name, O: rdf.NewLiteral("Mira \"M\" O'Hara\nline2")}},
		}},
	}
}

func encodeCorpus(t *testing.T) ([]byte, []int) {
	t.Helper()
	var log []byte
	var ends []int
	for i, b := range corpusBatches() {
		frame, err := encodeBatch(uint64(i+1), b)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, frame...)
		ends = append(ends, len(log))
	}
	return log, ends
}

func TestRecordRoundTrip(t *testing.T) {
	for i, b := range corpusBatches() {
		frame, err := encodeBatch(uint64(i+1), b)
		if err != nil {
			t.Fatal(err)
		}
		seq, got, err := decodePayload(frame[frameHeaderLen:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d", i, seq)
		}
		if len(got.Ops) != len(b.Ops) {
			t.Fatalf("record %d: %d ops, want %d", i, len(got.Ops), len(b.Ops))
		}
		for j, op := range got.Ops {
			want := b.Ops[j]
			if op.Kind != want.Kind || op.Model != want.Model || op.Quad != want.Quad {
				t.Fatalf("record %d op %d: got %+v want %+v", i, j, op, want)
			}
		}
	}
}

func TestEncodeBatchRejectsBadOps(t *testing.T) {
	good := rdf.Quad{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://o")}
	cases := []Batch{
		{Ops: []Op{{Kind: 9, Model: "m", Quad: good}}},                                  // unknown kind
		{Ops: []Op{{Kind: OpInsert, Model: "m", Quad: rdf.Quad{}}}},                     // invalid quad
		{Ops: []Op{{Kind: OpInsert, Model: strings.Repeat("m", 70000), Quad: good}}},    // model too long
		{Ops: []Op{{Kind: OpDelete, Model: "m", Quad: rdf.Quad{S: good.S, P: good.P}}}}, // missing object
	}
	for i, b := range cases {
		if _, err := encodeBatch(1, b); err == nil {
			t.Errorf("case %d: encodeBatch accepted a bad batch", i)
		}
	}
}

// goodRecords runs the reader and returns how many records decoded and
// the byte offset past the last good one.
func goodRecords(t *testing.T, log []byte) (n int, good int64) {
	t.Helper()
	good, _, err := readRecords(bytes.NewReader(log), func(seq uint64, b Batch) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("readRecords: %v", err)
	}
	return n, good
}

// TestReaderToleratesEveryTruncation is the exhaustive torn-tail
// property: cutting the log at ANY byte yields the longest record
// prefix that still fits, never an error.
func TestReaderToleratesEveryTruncation(t *testing.T) {
	log, ends := encodeCorpus(t)
	for c := 0; c <= len(log); c++ {
		wantRecs, wantGood := 0, int64(0)
		for i, end := range ends {
			if c >= end {
				wantRecs, wantGood = i+1, int64(end)
			}
		}
		n, good := goodRecords(t, log[:c])
		if n != wantRecs || good != wantGood {
			t.Fatalf("cut at %d: decoded %d records to offset %d, want %d to %d",
				c, n, good, wantRecs, wantGood)
		}
	}
}

// TestReaderStopsAtAnyCorruptByte flips each byte of the middle record
// and checks the CRC (or frame validation) stops decoding there.
func TestReaderStopsAtAnyCorruptByte(t *testing.T) {
	log, ends := encodeCorpus(t)
	for pos := ends[0]; pos < ends[1]; pos++ {
		mut := append([]byte(nil), log...)
		mut[pos] ^= 0xFF
		n, good := goodRecords(t, mut)
		// Corrupting record 2 must keep record 1 and cannot yield more
		// than 1 record unless the flip faked a longer valid frame —
		// which the CRC makes (astronomically) impossible.
		if n != 1 || good != int64(ends[0]) {
			t.Fatalf("flip at %d: decoded %d records to offset %d", pos, n, good)
		}
	}
}

func TestReaderRejectsHugeLengthPrefix(t *testing.T) {
	log := make([]byte, frameHeaderLen)
	log[0], log[1], log[2], log[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if n, good := goodRecords(t, log); n != 0 || good != 0 {
		t.Fatalf("decoded %d records to offset %d from a corrupt length prefix", n, good)
	}
}

// TestTornCorpusSeeds replays the pinned seed files: each is a
// truncated or corrupted copy of the canonical 3-record log, named
// recN-<case>.bin where N is the number of records that must survive.
func TestTornCorpusSeeds(t *testing.T) {
	if os.Getenv("UPDATE_TORN_CORPUS") != "" {
		writeTornCorpus(t)
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "torn", "*.bin"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no torn corpus seeds (err=%v); regenerate with UPDATE_TORN_CORPUS=1", err)
	}
	canonical, ends := encodeCorpus(t)
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		var want int
		if _, err := fmt.Sscanf(base, "rec%d-", &want); err != nil {
			t.Fatalf("seed %s: name must start with recN-", base)
		}
		n, good := goodRecords(t, data)
		if n != want {
			t.Errorf("seed %s: decoded %d records, want %d", base, n, want)
		}
		if want > 0 && good != int64(ends[want-1]) {
			t.Errorf("seed %s: good offset %d, want %d", base, good, ends[want-1])
		}
		if want > 0 && !bytes.Equal(data[:good], canonical[:good]) {
			t.Errorf("seed %s: surviving prefix diverges from the canonical log", base)
		}
	}
}

func writeTornCorpus(t *testing.T) {
	t.Helper()
	log, ends := encodeCorpus(t)
	dir := filepath.Join("testdata", "torn")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("rec3-clean.bin", log)
	write("rec0-empty.bin", nil)
	write("rec0-midheader.bin", log[:frameHeaderLen/2])
	write("rec1-midpayload.bin", log[:ends[0]+(ends[1]-ends[0])/2])
	write("rec2-headeronly.bin", log[:ends[1]+frameHeaderLen])
	crcFlip := append([]byte(nil), log...)
	crcFlip[ends[1]+5] ^= 0xA5 // CRC byte of record 3
	write("rec2-badcrc.bin", crcFlip)
	payloadFlip := append([]byte(nil), log...)
	payloadFlip[ends[2]-3] ^= 0x01 // payload byte of record 3
	write("rec2-bitrot.bin", payloadFlip)
	huge := append(append([]byte(nil), log[:ends[0]]...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	write("rec1-hugelen.bin", huge)
	garbage := append(append([]byte(nil), log...), bytes.Repeat([]byte{0x00}, 16)...)
	write("rec3-zerotail.bin", garbage)
}

// TestDecodePayloadAllocs bounds what decoding a record allocates: per
// op its model name, its N-Quads line (whose substrings become the
// terms) and at most two for a literal with escapes, plus the op slice.
// A Reader per op, as decoding once used, costs a 64 KiB buffer each.
func TestDecodePayloadAllocs(t *testing.T) {
	for i, b := range corpusBatches() {
		frame, err := encodeBatch(uint64(i+1), b)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[frameHeaderLen:]
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := decodePayload(payload); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(1 + 4*len(b.Ops)); got > limit {
			t.Errorf("record %d (%d ops): %.0f allocations per decode, want <= %.0f", i, len(b.Ops), got, limit)
		}
	}
}

// FuzzDecodePayload: decoding an arbitrary payload never panics, and a
// batch it accepts encodes back to a payload that decodes to the same
// batch and is its own re-encoding. (The decoder, like the bulk-load
// parser, accepts spacing and comment lines the encoder never writes,
// so only the encoder's output is a fixed point.) Seeds are the
// payloads of the canonical corpus and of the torn-write corpus files.
func FuzzDecodePayload(f *testing.F) {
	for i, b := range corpusBatches() {
		frame, err := encodeBatch(uint64(i+1), b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeaderLen:])
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "torn", "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > frameHeaderLen {
			f.Add(data[frameHeaderLen:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, b, err := decodePayload(payload)
		if err != nil {
			return
		}
		frame, err := encodeBatch(seq, b)
		if err != nil {
			t.Fatalf("decoded batch does not encode: %v\npayload: %q", err, payload)
		}
		seq2, b2, err := decodePayload(frame[frameHeaderLen:])
		if err != nil || seq2 != seq || !reflect.DeepEqual(b2, b) {
			t.Fatalf("re-encoded batch decodes to seq %d %+v (err %v), want seq %d %+v", seq2, b2, err, seq, b)
		}
		again, err := encodeBatch(seq2, b2)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("encoding is not a fixed point:\n%q\n%q", frame, again)
		}
	})
}
