package sparql

// regressionInputs pins queries that previously made FuzzParseAndExec
// fail — a parser panic or an executor panic recovered as guard.ErrInternal.
// Each entry is fed back as a fuzz seed so the bug cannot silently
// return.
var regressionInputs = []string{
	// A byte >= 0x80 decoding to a non-name rune made the lexer emit a
	// zero-width identifier token without advancing, so lex() looped
	// forever appending tokens until the process was killed. Both the
	// invalid-UTF-8 and the valid-but-non-letter forms are pinned.
	"PREFIX key: \xea\xea\xea<http://pg/k/>\nSELECT ?y WHERE { ?x ?p ?y }",
	"SELECT • WHERE { ?s ?p ?o }",
}
