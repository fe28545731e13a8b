package sparql

import (
	"fmt"

	"repro/internal/store"
)

// pathOp evaluates a closure property path (`*`, `+`, `?`) between two
// positions, with SPARQL's distinct-node semantics. At least one endpoint
// must be bound (by a constant or an earlier pattern); arbitrary-length
// paths with both endpoints unbound are rejected, matching the paper's
// observation (§5.1) that SPARQL property paths cannot enumerate
// unanchored paths.
type pathOp struct {
	opStage
	s, o  posRef
	g     graphRef
	inner Path
	min   int // 0 for *, 1 for +
	max   int // 0 = unlimited, 1 for ?
	c     *compiler
}

func (o *pathOp) bound(before varset) varset {
	v := before
	if o.s.isVar {
		v = v.with(o.s.slot)
	}
	if o.o.isVar {
		v = v.with(o.o.slot)
	}
	return v
}

func (o *pathOp) apply(ec *execCtx, in source) source {
	return func(yield func(binding) bool) error {
		pst := ec.profStage(o.sid)
		var evalErr error
		err := in(func(b binding) bool {
			if pst != nil {
				pst.rowsIn++
			}
			startID, startBound := o.endpoint(ec, o.s, b)
			endID, endBound := o.endpoint(ec, o.o, b)
			switch {
			case startBound:
				reached, err := o.closure(ec, b, startID, false)
				if err != nil {
					evalErr = err
					return false
				}
				for _, node := range reached {
					if endBound {
						if node == endID {
							if !yield(b) {
								return false
							}
						}
						continue
					}
					old := b[o.o.slot]
					if old != store.NoID && old != node {
						continue
					}
					b[o.o.slot] = node
					cont := yield(b)
					b[o.o.slot] = old
					if !cont {
						return false
					}
				}
				return true
			case endBound:
				reached, err := o.closure(ec, b, endID, true)
				if err != nil {
					evalErr = err
					return false
				}
				for _, node := range reached {
					old := b[o.s.slot]
					if old != store.NoID && old != node {
						continue
					}
					b[o.s.slot] = node
					cont := yield(b)
					b[o.s.slot] = old
					if !cont {
						return false
					}
				}
				return true
			default:
				evalErr = fmt.Errorf("sparql: arbitrary-length path with both endpoints unbound is not supported")
				return false
			}
		})
		if evalErr != nil {
			return evalErr
		}
		return err
	}
}

// endpoint resolves an endpoint to an ID if bound.
func (o *pathOp) endpoint(ec *execCtx, r posRef, b binding) (store.ID, bool) {
	if !r.isVar {
		return ec.intern(r.term), true
	}
	if b[r.slot] != store.NoID {
		return b[r.slot], true
	}
	return store.NoID, false
}

// closure computes the nodes reachable from start via the inner path
// repeated [min..max] times (max 0 = unlimited), using BFS with
// distinct-node semantics. The result is in BFS discovery order —
// deterministic given the store's deterministic scan order.
func (o *pathOp) closure(ec *execCtx, b binding, start store.ID, reverse bool) ([]store.ID, error) {
	var reached []store.ID
	inReached := make(map[store.ID]struct{})
	add := func(id store.ID) {
		if _, dup := inReached[id]; !dup {
			inReached[id] = struct{}{}
			reached = append(reached, id)
		}
	}
	if o.min == 0 {
		add(start)
	}
	frontier := []store.ID{start}
	visited := map[store.ID]struct{}{start: {}}
	depth := 0
	for len(frontier) > 0 {
		depth++
		if o.max > 0 && depth > o.max {
			break
		}
		var next []store.ID
		for _, node := range frontier {
			// Cooperative cancellation between node expansions: a
			// multi-hop traversal over a dense graph can spend its
			// whole life inside this loop.
			if !ec.guard.Poll() {
				return nil, ec.guard.Err()
			}
			succ, err := o.step(ec, b, o.inner, node, reverse)
			if err != nil {
				return nil, err
			}
			for _, s := range succ {
				if depth >= o.min {
					add(s)
				}
				if _, seen := visited[s]; !seen {
					visited[s] = struct{}{}
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return reached, nil
}

// step enumerates one-step successors of node via path p (predecessors
// when reverse is true).
func (o *pathOp) step(ec *execCtx, b binding, p Path, node store.ID, reverse bool) ([]store.ID, error) {
	switch x := p.(type) {
	case PathIRI:
		pid := ec.st.Dict().Lookup(x.IRI)
		if pid == store.NoID {
			return nil, nil
		}
		pat := store.AnyPattern()
		pat.P = pid
		if reverse {
			pat.C = node
		} else {
			pat.S = node
		}
		o.applyGraph(ec, b, &pat)
		var scanned int64 // step scans are guard-charged per row
		var out []store.ID
		ec.scan(pat, func(q store.IDQuad) bool {
			scanned++
			if o.g.kind == GraphVar && q.G == store.NoID {
				return true
			}
			if reverse {
				out = append(out, q.S)
			} else {
				out = append(out, q.C)
			}
			return true
		})
		ec.profStage(o.sid).addTicks(scanned)
		return out, nil
	case PathInverse:
		return o.step(ec, b, x.Inner, node, !reverse)
	case PathAlt:
		l, err := o.step(ec, b, x.Left, node, reverse)
		if err != nil {
			return nil, err
		}
		r, err := o.step(ec, b, x.Right, node, reverse)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case PathSeq:
		first, second := x.Left, x.Right
		if reverse {
			first, second = second, first
		}
		mid, err := o.step(ec, b, first, node, reverse)
		if err != nil {
			return nil, err
		}
		var out []store.ID
		for _, m := range mid {
			s, err := o.step(ec, b, second, m, reverse)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case PathStar, PathPlus, PathOpt:
		inner, min, max := innerOf(x)
		// The nested closure inherits this operator's stage id so its
		// scan ticks are attributed to the same profile slot.
		sub := &pathOp{opStage: o.opStage, s: o.s, o: o.o, g: o.g, inner: inner, min: min, max: max, c: o.c}
		return sub.closure(ec, b, node, reverse)
	case PathVar:
		return nil, fmt.Errorf("sparql: variable predicates are not supported inside path closures")
	default:
		return nil, fmt.Errorf("sparql: unsupported path %T in closure", p)
	}
}

func innerOf(p Path) (inner Path, min, max int) {
	switch x := p.(type) {
	case PathStar:
		return x.Inner, 0, 0
	case PathPlus:
		return x.Inner, 1, 0
	case PathOpt:
		return x.Inner, 0, 1
	default:
		return p, 1, 1
	}
}

// applyGraph sets the graph restriction on a step scan pattern.
func (o *pathOp) applyGraph(ec *execCtx, b binding, pat *store.Pattern) {
	switch o.g.kind {
	case GraphTerm:
		pat.G = ec.st.Dict().Lookup(o.g.term)
	case GraphVar:
		if b[o.g.slot] != store.NoID {
			pat.G = b[o.g.slot]
		} else {
			pat.G = store.Any
		}
	default:
		pat.G = store.Any
	}
}

func (o *pathOp) explain(e *explainer) {
	kind := "*"
	switch {
	case o.min == 1 && o.max == 0:
		kind = "+"
	case o.max == 1:
		kind = "?"
	}
	e.printf("PathClosure (%s, BFS, distinct nodes)", kind)
}
