// Package iterclosetest exercises the iterclose analyzer against the
// store.Cursor resource type.
package iterclosetest

import (
	"errors"

	"repro/internal/store"
)

func neverClosed(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p) // want "is never closed; defer c.Close"
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func discardedBare(st *store.Store, p store.Pattern) {
	st.Cursor(p) // want "result discarded; it must be closed"
}

func discardedBlank(st *store.Store, p store.Pattern) {
	_ = st.Cursor(p) // want "result discarded; it must be closed"
}

func earlyReturnLeak(st *store.Store, p store.Pattern, fail bool) error {
	c := st.Cursor(p) // want "may leak: a return between acquisition and Close"
	if fail {
		return errors.New("boom") // skips the close below
	}
	_, _ = c.Next()
	c.Close()
	return nil
}

func goodDeferred(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p)
	defer c.Close()
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func goodDeferredInClosure(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p)
	defer func() { _ = c.Close() }()
	return c.Len()
}

func goodStraightLine(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p)
	n := c.Len()
	c.Close()
	if n > 10 {
		return 10
	}
	return n
}

func goodReturned(st *store.Store, p store.Pattern) *store.Cursor {
	return st.Cursor(p) // ownership moves to the caller
}

func goodReturnedVar(st *store.Store, p store.Pattern) (*store.Cursor, error) {
	c := st.Cursor(p)
	return c, nil
}

func goodHandedOff(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p)
	return drain(c) // callee takes ownership
}

func drain(c *store.Cursor) int {
	defer c.Close()
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			return n
		}
		n++
	}
}

func goodStored(st *store.Store, p store.Pattern) []*store.Cursor {
	var open []*store.Cursor
	c := st.Cursor(p)
	open = append(open, c) // escapes into a structure the caller owns
	return open
}

func suppressed(st *store.Store, p store.Pattern) {
	//pgrdfvet:ignore iterclose -- intentionally leaked to exercise the OpenCursors gauge in a demo
	c := st.Cursor(p)
	_, _ = c.Next()
}
