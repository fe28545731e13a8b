package pgrdf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/pg"
	"repro/internal/twitter"
)

// TestConvertPinned pins Convert's output byte for byte: the SHA-256 of
// Dataset.All(), one quad per line, for every scheme under every Options
// combination, on Figure 1 and on the twitter graph at scale 0.01. The
// quad order matters as much as the quads: dictionary IDs, and through
// them snapshot digests and golden result order, follow it.
func TestConvertPinned(t *testing.T) {
	want := map[string]string{
		"figure1/RF/spo/full":     "085bcd27094f69af90784bd3b633d274a70fd5cdff701858593f0fb8d70760be",
		"figure1/RF/spo/single":   "085bcd27094f69af90784bd3b633d274a70fd5cdff701858593f0fb8d70760be",
		"figure1/RF/nospo/full":   "ca7a32928eb5f079ef39728c25962ed2a59f2f2128c65f21a016659b7c84ee98",
		"figure1/RF/nospo/single": "ca7a32928eb5f079ef39728c25962ed2a59f2f2128c65f21a016659b7c84ee98",
		"figure1/NG/spo/full":     "ece4a5225b5632373ec9d245f2ea7156d74cca020b7e0779ffdccab7817d7e84",
		"figure1/NG/spo/single":   "ece4a5225b5632373ec9d245f2ea7156d74cca020b7e0779ffdccab7817d7e84",
		"figure1/NG/nospo/full":   "ece4a5225b5632373ec9d245f2ea7156d74cca020b7e0779ffdccab7817d7e84",
		"figure1/NG/nospo/single": "ece4a5225b5632373ec9d245f2ea7156d74cca020b7e0779ffdccab7817d7e84",
		"figure1/SP/spo/full":     "ca99fb49cd5aed0ca670269040ff7ab04ec52fe46b2e378a213b5f932534a282",
		"figure1/SP/spo/single":   "ca99fb49cd5aed0ca670269040ff7ab04ec52fe46b2e378a213b5f932534a282",
		"figure1/SP/nospo/full":   "a792b87737245848a40ded20e068e77b0f68d8570a678443378227d94076a08e",
		"figure1/SP/nospo/single": "a792b87737245848a40ded20e068e77b0f68d8570a678443378227d94076a08e",
		"twitter/RF/spo/full":     "948a33238a644556511b58ab842fdcdf72bb95adca2e6181a33d215027cd5b8e",
		"twitter/RF/spo/single":   "21801fb3add1e478bc29b842e717d9663e280997dafbe158225f956850c3dd34",
		"twitter/RF/nospo/full":   "7a8e43d0aeab2a3f6461bf8114abadce8cbb9fee98516bb05bb207b8616b6ef2",
		"twitter/RF/nospo/single": "23cfa0916acd4b432c14adc4e08900925ea0c80988679b8463262e0a1222e1f5",
		"twitter/NG/spo/full":     "e136c839056662d9e27cb5a11d71ef39a72cbfdd1866a736022c36cea84f1550",
		"twitter/NG/spo/single":   "b2081f797b4890ebc64cb96980c3483eee4149626065331bfcbdb32c9cd8ae4e",
		"twitter/NG/nospo/full":   "e136c839056662d9e27cb5a11d71ef39a72cbfdd1866a736022c36cea84f1550",
		"twitter/NG/nospo/single": "b2081f797b4890ebc64cb96980c3483eee4149626065331bfcbdb32c9cd8ae4e",
		"twitter/SP/spo/full":     "9edca903bdf43c85d833b30dcab16e49749136591d05f59eeef6d9638e04bad6",
		"twitter/SP/spo/single":   "84b2c33930826418f6ba487b2fdd51e6d6b9410fb872ff43d162189492c08193",
		"twitter/SP/nospo/full":   "d792bd5d4f47a37b2f005dc25f0cb7e4462dbcf40df92be1dffedef2e33f8c38",
		"twitter/SP/nospo/single": "008fac5e25759380d22b766a79b4aa61cec080145a9b2e9464f22819fa6986a4",
	}
	graphs := []struct {
		name string
		g    *pg.Graph
	}{
		{"figure1", figure1(t)},
		{"twitter", twitter.Generate(twitter.TestConfig())},
	}
	for _, tg := range graphs {
		for _, s := range Schemes {
			for _, opts := range allOptions() {
				name := fmt.Sprintf("%s/%s/%s", tg.name, s, optionsName(opts))
				c := &Converter{Scheme: s, Vocab: DefaultVocabulary(), Opts: opts}
				h := sha256.New()
				for _, q := range c.Convert(tg.g).All() {
					fmt.Fprintln(h, q.String())
				}
				got := hex.EncodeToString(h.Sum(nil))
				if got != want[name] {
					t.Errorf("%s: sha256 = %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// allOptions lists the four Options combinations.
func allOptions() []Options {
	var out []Options
	for _, spo := range []bool{true, false} {
		for _, single := range []bool{false, true} {
			out = append(out, Options{ExplicitSPO: spo, SingleTripleWhenNoKVs: single})
		}
	}
	return out
}

func optionsName(o Options) string {
	name := "spo"
	if !o.ExplicitSPO {
		name = "nospo"
	}
	if o.SingleTripleWhenNoKVs {
		return name + "/single"
	}
	return name + "/full"
}
