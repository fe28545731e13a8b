// Package twitter generates synthetic Twitter-like ego-network property
// graphs with the construction rules of the paper's §4.2, substituting
// for the SNAP egonets-Twitter dataset (which is not redistributable
// here):
//
//   - the graph is a union of ego networks; each ego a has a member set
//     and the network contains `b follows c` edges among members, which
//     "implicitly means a knows b and a knows c" — so `a knows m` edges
//     link the ego to its members;
//   - each node has features of the form @keyword or #tag, stored as
//     multi-valued node KVs `refs @keyword` and `hasTag #tag`;
//   - each edge's KVs are the INTERSECTION of its endpoints' KV sets:
//     {KVs of e} = {KVs of a} ∩ {KVs of b}.
//
// Members are drawn from a shared node pool with Zipf-like popularity,
// which yields the paper's highly connected graph with heavy-tailed
// in-degrees; members of one ego draw features from an ego-local pool,
// which makes endpoint KV sets overlap and drives the edge-KV count
// above the node-KV count, as in Table 6.
package twitter

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/pg"
)

// Config controls the generated dataset's scale and shape.
type Config struct {
	// Egos is the number of ego networks (the paper's dataset has 973).
	Egos int
	// MeanMembers is the mean member count per ego (~131 in the paper:
	// 128,200 knows edges over 973 egos).
	MeanMembers int
	// FollowsPerMember is the mean number of follows edges each member
	// has inside an ego (~13 in the paper: 1,667,885 follows edges).
	FollowsPerMember float64
	// PoolFactor scales the shared node pool: pool size =
	// Egos*MeanMembers/PoolFactor. Larger values mean more node
	// sharing across egos (the paper has 76,245 distinct nodes over
	// ~127k ego-member slots, factor ≈ 1.7).
	PoolFactor float64
	// Keywords and Tags size the global feature vocabularies.
	Keywords, Tags int
	// MeanKeywordsPerNode and MeanTagsPerNode control node KV counts
	// (the paper has ~16 KVs per node, refs-heavy).
	MeanKeywordsPerNode, MeanTagsPerNode float64
	// EgoPoolKeywords/EgoPoolTags are the sizes of the per-ego feature
	// pools members draw from; smaller pools increase endpoint KV
	// overlap and hence edge KVs.
	EgoPoolKeywords, EgoPoolTags int
	// MaxMemberships caps how many egos one node can belong to. Each
	// membership adds ~FollowsPerMember outgoing edges, so the cap
	// bounds out-degrees — the paper's Figure 4 shows out-degrees are
	// much lower than in-degrees, and multi-hop path counts (EQ11)
	// blow up without the cap.
	MaxMemberships int
	// Seed makes generation deterministic.
	Seed int64
}

// PaperConfig returns a configuration shaped like the paper's dataset at
// full scale: ~76k nodes, ~1.8M edges, ~1.2M node KVs, ~3.3M edge KVs.
func PaperConfig() Config {
	return Config{
		Egos:                973,
		MeanMembers:         131,
		FollowsPerMember:    13,
		PoolFactor:          1.67,
		Keywords:            20000,
		Tags:                13000,
		MeanKeywordsPerNode: 13,
		MeanTagsPerNode:     3,
		EgoPoolKeywords:     40,
		EgoPoolTags:         12,
		MaxMemberships:      4,
		Seed:                20140324, // EDBT'14 opened March 24, 2014
	}
}

// Scale returns a copy of the config with ego count (and the node pool
// with it) scaled by f. Per-ego density is unchanged, so query
// selectivities keep the paper's shape.
func (c Config) Scale(f float64) Config {
	c.Egos = max(1, int(float64(c.Egos)*f))
	return c
}

// TestConfig is a small config for unit tests.
func TestConfig() Config { return PaperConfig().Scale(0.01) }

// Generate builds the synthetic ego-network property graph.
func Generate(cfg Config) *pg.Graph {
	if cfg.Egos <= 0 || cfg.MeanMembers <= 0 {
		panic("twitter: config must have positive Egos and MeanMembers")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := pg.NewGraph()

	poolSize := max(cfg.MeanMembers+1, int(float64(cfg.Egos*cfg.MeanMembers)/cfg.PoolFactor))
	pool := make([]pg.ID, poolSize)
	for i := range pool {
		pool[i] = g.AddVertex().ID
	}

	// Zipf-like popularity for member sampling: popular nodes appear in
	// many egos, giving heavy-tailed in-degrees (Figure 4).
	zipf := rand.NewZipf(rng, 1.4, 8, uint64(poolSize-1))

	features := make(map[pg.ID]*featureSet, poolSize)
	type edgeKey struct {
		src, dst pg.ID
		follows  bool
	}
	seenEdges := make(map[edgeKey]struct{})

	memberships := make(map[pg.ID]int, poolSize)
	maxMemberships := cfg.MaxMemberships
	if maxMemberships <= 0 {
		maxMemberships = 1 << 30 // uncapped
	}

	for ego := 0; ego < cfg.Egos; ego++ {
		// Pick the ego node and its members from the pool.
		egoNode := pool[rng.Intn(poolSize)]
		nMembers := poissonAtLeast(rng, float64(cfg.MeanMembers), 3)
		memberSet := make(map[pg.ID]struct{}, nMembers)
		members := make([]pg.ID, 0, nMembers)
		rejections := 0
		for len(members) < nMembers {
			var m pg.ID
			if rejections < 4*nMembers {
				m = pool[zipf.Uint64()]
			} else {
				// Popular nodes are all at their membership cap; fall
				// back to uniform sampling to terminate.
				m = pool[rng.Intn(poolSize)]
			}
			if m == egoNode {
				continue
			}
			if _, dup := memberSet[m]; dup {
				rejections++
				continue
			}
			if memberships[m] >= maxMemberships {
				rejections++
				continue
			}
			memberSet[m] = struct{}{}
			memberships[m]++
			members = append(members, m)
		}

		// Ego-local feature pools: members of one circle share topics.
		kwPool := make([]feature, cfg.EgoPoolKeywords)
		for i := range kwPool {
			kwPool[i] = feature{key: "refs", val: fmt.Sprintf("@kw%d", rng.Intn(cfg.Keywords))}
		}
		tagPool := make([]feature, cfg.EgoPoolTags)
		for i := range tagPool {
			tagPool[i] = feature{key: "hasTag", val: fmt.Sprintf("#tag%d", rng.Intn(cfg.Tags))}
		}

		// Assign features to members (and the ego) from the pools.
		assign := func(n pg.ID) {
			nk := poisson(rng, cfg.MeanKeywordsPerNode/2) // per ego; nodes in several egos accumulate more
			for i := 0; i < nk; i++ {
				addFeature(g, features, n, kwPool[rng.Intn(len(kwPool))])
			}
			nt := poisson(rng, cfg.MeanTagsPerNode/2)
			for i := 0; i < nt; i++ {
				addFeature(g, features, n, tagPool[rng.Intn(len(tagPool))])
			}
		}
		assign(egoNode)
		for _, m := range members {
			assign(m)
		}

		// knows edges: ego a knows each member.
		for _, m := range members {
			k := edgeKey{src: egoNode, dst: m}
			if _, dup := seenEdges[k]; dup {
				continue
			}
			seenEdges[k] = struct{}{}
			e, err := g.AddEdge(egoNode, m, "knows")
			if err != nil {
				panic(err)
			}
			setEdgeKVs(g, features, e)
		}

		// follows edges among members, preferential within the ego:
		// earlier members are followed more (local hubs).
		nFollows := int(float64(len(members)) * cfg.FollowsPerMember)
		for i := 0; i < nFollows; i++ {
			src := members[rng.Intn(len(members))]
			// Cubic skew toward low indices: the first few members are
			// the ego circle's local celebrities, producing the
			// heavy-tailed in-degrees of Figure 4 while out-degrees
			// stay bounded.
			j := rng.Intn(len(members))
			for draw := 0; draw < 2; draw++ {
				if k := rng.Intn(len(members)); k < j {
					j = k
				}
			}
			dst := members[j]
			if src == dst {
				continue
			}
			ek := edgeKey{src: src, dst: dst, follows: true}
			if _, dup := seenEdges[ek]; dup {
				continue
			}
			seenEdges[ek] = struct{}{}
			e, err := g.AddEdge(src, dst, "follows")
			if err != nil {
				panic(err)
			}
			setEdgeKVs(g, features, e)
		}
	}
	return g
}

type feature struct{ key, val string }

// featureSet keeps both insertion order (for deterministic output) and
// a membership map (for O(1) intersection checks).
type featureSet struct {
	list []feature
	set  map[feature]struct{}
}

func addFeature(g *pg.Graph, features map[pg.ID]*featureSet, n pg.ID, f feature) {
	fs := features[n]
	if fs == nil {
		fs = &featureSet{set: make(map[feature]struct{})}
		features[n] = fs
	}
	if _, dup := fs.set[f]; dup {
		return
	}
	fs.set[f] = struct{}{}
	fs.list = append(fs.list, f)
	g.Vertex(n).AddProperty(f.key, pg.S(f.val))
}

// setEdgeKVs applies the paper's rule: edge KVs are the intersection of
// the endpoints' KV sets.
func setEdgeKVs(g *pg.Graph, features map[pg.ID]*featureSet, e *pg.Edge) {
	srcF, dstF := features[e.Src], features[e.Dst]
	if srcF == nil || dstF == nil {
		return
	}
	small, big := srcF, dstF
	if len(dstF.list) < len(srcF.list) {
		small, big = dstF, srcF
	}
	for _, f := range small.list {
		if _, ok := big.set[f]; ok {
			e.AddProperty(f.key, pg.S(f.val))
		}
	}
}

// poisson draws a Poisson-distributed value (Knuth's method; means here
// are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func poissonAtLeast(rng *rand.Rand, mean float64, min int) int {
	v := poisson(rng, mean)
	if v < min {
		return min
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
