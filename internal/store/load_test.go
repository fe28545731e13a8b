package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// loadDigests pins, per scheme, the SHA-256 of the binary snapshot of
// the twitter dataset at scale 0.01 loaded into `pgrdf serve`'s four
// default indexes in two overlapping Loads (the first two thirds, then
// the last two thirds). The bytes fix the dictionary's ID assignment,
// every index's base order and the deduplication of the overlap; they
// were recorded with the comparison-sort loader that the radix loader
// replaced, and no change to how Load builds indexes may move them.
// serveIndexes is `pgrdf serve`'s default -indexes value.
var serveIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

var loadDigests = map[pgrdf.Scheme]string{
	pgrdf.RF: "c5e8fd52847270749c979275ab6f8f018e3fc473930a0bf3fdbfc69e7ef163ac",
	pgrdf.NG: "273cf956c8558b61e6acf32b4ceb428208300a2df2112e48dc196d594bd0c8a1",
	pgrdf.SP: "9a35851f4993d17629a6a1da1e50fbbf22b33353f2198289d434dd11115f8418",
}

func TestLoadSnapshotDigestsPinned(t *testing.T) {
	g := twitter.Generate(twitter.PaperConfig().Scale(0.01))
	for _, scheme := range pgrdf.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			quads := pgrdf.NewConverter(scheme).Convert(g).All()
			st, err := store.NewWithIndexes(serveIndexes)
			if err != nil {
				t.Fatal(err)
			}
			third := len(quads) / 3
			if _, err := st.Load("data", quads[:2*third]); err != nil {
				t.Fatal(err)
			}
			n, err := st.Load("data", quads[third:])
			if err != nil {
				t.Fatal(err)
			}
			if n != len(quads)-2*third {
				t.Fatalf("second Load added %d quads, want %d", n, len(quads)-2*third)
			}
			h := sha256.New()
			if err := st.View().SnapshotBinary(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != loadDigests[scheme] {
				t.Errorf("%d quads: snapshot digest %s, want %s", st.Len(), got, loadDigests[scheme])
			}
		})
	}
}

// BenchmarkLoad times one bulk Load of the twitter dataset at scale 0.05
// (the benchmark workloads' size) into an empty store with
// `pgrdf serve`'s default indexes: interning, the index sorts and the
// publication, without N-Quads parsing.
func BenchmarkLoad(b *testing.B) {
	g := twitter.Generate(twitter.PaperConfig().Scale(0.05))
	for _, scheme := range pgrdf.Schemes {
		quads := pgrdf.NewConverter(scheme).Convert(g).All()
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.NewWithIndexes(serveIndexes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Load("data", quads); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(quads)), "quads")
		})
	}
}
