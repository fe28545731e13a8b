package pgrdf

import (
	"errors"
	"strings"
	"testing"
)

// TestFromRDFRefusesLossyDataset: SingleTripleWhenNoKVs encodes a
// KV-less edge as the bare -s-p-o triple and so drops its edge ID.
// FromRDF, and Migrate through it, must refuse such a dataset rather than
// return a graph without the edge.
func TestFromRDFRefusesLossyDataset(t *testing.T) {
	g := figure1(t)
	mustEdge(t, g, 100, 1, 2, "likes", nil)
	for _, s := range Schemes {
		c := NewConverter(s)
		c.Opts.SingleTripleWhenNoKVs = true
		ds := c.Convert(g)
		if back, err := FromRDF(ds, c.Vocab); !errors.Is(err, ErrLossyDataset) {
			t.Errorf("%s: FromRDF returned %v (err %v), want ErrLossyDataset", s, back, err)
		}
		to := Schemes[(int(s)+1)%len(Schemes)]
		if _, err := Migrate(ds, c.Vocab, to, DefaultOptions()); !errors.Is(err, ErrLossyDataset) {
			t.Errorf("%s -> %s: Migrate err %v, want ErrLossyDataset", s, to, err)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes {
		for _, name := range []string{s.String(), strings.ToLower(s.String()), " " + s.String() + " "} {
			if got, err := ParseScheme(name); err != nil || got != s {
				t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, name := range []string{"", "auto", "XX"} {
		if _, err := ParseScheme(name); !errors.Is(err, ErrUnknownScheme) {
			t.Errorf("ParseScheme(%q) err = %v, want ErrUnknownScheme", name, err)
		}
	}
	if got := Scheme(7).String(); got != "Scheme(7)" {
		t.Errorf("Scheme(7).String() = %q", got)
	}
}
