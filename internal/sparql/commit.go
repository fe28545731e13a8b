package sparql

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// Mutation is one quad-level change of an Update operation, in the
// order it will be applied. Model is the concrete semantic model the
// change targets: deletes issued against a virtual model or the
// all-models dataset are expanded to one Mutation per member model
// before they reach the hook, so a journal replaying them never needs
// dataset resolution.
type Mutation struct {
	// Insert asserts the quad; false retracts it.
	Insert bool
	Model  string
	Quad   rdf.Quad
}

// CommitHook intercepts the commit of one Update operation so a
// durability layer can journal it log-first: the hook persists muts,
// then calls apply exactly once to mutate the store, and returns
// apply's error. If persisting fails the hook returns without calling
// apply — the operation never happened, in memory or on disk. The
// engine pre-validates every quad and resolves every model before
// calling the hook, so apply itself cannot fail on malformed input.
//
// The hook serializes calls as needed (Engine.UpdateContext operations may
// run concurrently); the engine imposes no ordering of its own.
type CommitHook func(muts []Mutation, apply func() error) error

// commit routes one update operation's quad delta through the commit
// hook, or applies it directly when none is installed.
func (e *Engine) commit(muts []Mutation, apply func() error) error {
	if e.CommitHook == nil || len(muts) == 0 {
		return apply()
	}
	return e.CommitHook(muts, apply)
}

// applyMutations commits one operation's quad delta (log first when a
// hook is installed) and applies it to the store as one store.Apply —
// readers see the operation entirely or not at all — tallying the quads
// that actually changed into res.
func (e *Engine) applyMutations(muts []Mutation, res *UpdateResult) error {
	return e.commit(muts, func() error {
		ops := make([]store.Op, len(muts))
		for i, mu := range muts {
			ops[i] = store.Op{Delete: !mu.Insert, Model: mu.Model, Quad: mu.Quad}
		}
		ins, del, err := e.st.Apply(ops)
		res.Inserted += ins
		res.Deleted += del
		return err
	})
}
