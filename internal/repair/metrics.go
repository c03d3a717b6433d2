package repair

import "ozz/internal/obs"

// Metrics holds the ozz_repair_* counter families. A nil *Metrics is
// valid and records nothing, so searches run unchanged without a
// registry.
type Metrics struct {
	// Searches counts repair searches run (ozz_repair_searches_total).
	Searches *obs.Counter
	// CandidatesEnumerated counts candidates generated across all size
	// classes (ozz_repair_candidates_enumerated_total).
	CandidatesEnumerated *obs.Counter
	// CandidatesValidated counts candidates that survived legality,
	// closure, and minimality (ozz_repair_candidates_validated_total).
	CandidatesValidated *obs.Counter
	// CandidatesRejected counts rejected candidates by reason —
	// legality, closure, or minimality
	// (ozz_repair_candidates_rejected_total{reason}).
	CandidatesRejected *obs.CounterVec
	// SuggestionsTotal counts searches that produced at least one
	// validated suggestion (ozz_repair_suggestions_total).
	SuggestionsTotal *obs.Counter
}

// RegisterMetrics registers (or, on a shared registry, re-resolves) the
// ozz_repair_* families and returns the handle bundle.
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Searches: reg.Counter("ozz_repair_searches_total",
			"Fence-repair searches run."),
		CandidatesEnumerated: reg.Counter("ozz_repair_candidates_enumerated_total",
			"Repair candidates enumerated across all size classes."),
		CandidatesValidated: reg.Counter("ozz_repair_candidates_validated_total",
			"Repair candidates that passed legality, closure, and minimality."),
		CandidatesRejected: reg.CounterVec("ozz_repair_candidates_rejected_total",
			"Repair candidates rejected, by check (legality = reference enumerator, closure = live engine, minimality = a fence was droppable).",
			"reason"),
		SuggestionsTotal: reg.Counter("ozz_repair_suggestions_total",
			"Repair searches that produced at least one validated suggestion."),
	}
}

// publish adds one finished search's counts, from its Stats, to the
// counters.
func (m *Metrics) publish(res *Result) {
	if m == nil {
		return
	}
	s := res.Stats
	m.Searches.Add(1)
	m.CandidatesEnumerated.Add(uint64(s.Enumerated))
	m.CandidatesValidated.Add(uint64(s.Validated))
	for _, r := range []struct {
		reason string
		n      int
	}{{"legality", s.RejectedLegality}, {"closure", s.RejectedClosure}, {"minimality", s.RejectedMinimality}} {
		if r.n > 0 {
			m.CandidatesRejected.With(r.reason).Add(uint64(r.n))
		}
	}
	if len(res.Suggestions) > 0 {
		m.SuggestionsTotal.Add(1)
	}
}
