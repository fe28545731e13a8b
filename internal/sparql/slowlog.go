package sparql

// Structured slow-query log (DESIGN.md §11): every query whose wall
// time reaches Engine.SlowQueryThreshold is appended to
// Engine.SlowQueryLog as one JSON line, with the per-operator profile
// attached for SELECT queries (profiling is switched on automatically
// while a slow-query log is installed). A threshold of zero logs every
// query, which is the right setting for debugging a single request.

import (
	"encoding/json"
	"time"
)

// SlowQueryRecord is one slow-query log line.
type SlowQueryRecord struct {
	Time       string   `json:"time"`
	Form       string   `json:"form"`
	Dataset    string   `json:"dataset"`
	DurationMS float64  `json:"duration_ms"`
	Rows       int      `json:"rows"`
	Error      string   `json:"error,omitempty"`
	Query      string   `json:"query"`
	Profile    *Profile `json:"profile,omitempty"`
}

// recordQuery feeds the per-form metrics and, when the query is slow
// enough, the slow-query log. It is registered with defer BEFORE
// guard.Recover in every entry point, so it runs after recovery
// and observes the final error.
func (e *Engine) recordQuery(form int, model, query string, start time.Time, errp *error, rowsp *int, profp **Profile) {
	d := time.Since(start)
	var err error
	if errp != nil {
		err = *errp
	}
	e.metrics.observe(form, d, err)

	w := e.SlowQueryLog
	if w == nil || d < e.SlowQueryThreshold {
		return
	}
	e.metrics.slow.Add(1)
	rec := SlowQueryRecord{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Form:       formNames[form],
		Dataset:    datasetName(model),
		DurationMS: float64(d) / float64(time.Millisecond),
		Query:      query,
	}
	if rowsp != nil {
		rec.Rows = *rowsp
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if profp != nil {
		rec.Profile = *profp
	}
	line, jerr := json.Marshal(rec)
	if jerr != nil {
		return // a record that cannot marshal is dropped, never fatal
	}
	line = append(line, '\n')
	e.slowMu.Lock()
	w.Write(line)
	e.slowMu.Unlock()
}

// slowLogWantsProfile reports whether SELECT execution should collect
// a profile solely to serve the slow-query log.
func (e *Engine) slowLogWantsProfile() bool {
	return e.SlowQueryLog != nil
}
