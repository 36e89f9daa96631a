package core

// Query tracing. The paper explains its evaluation procedure through a
// worked example (Section 3.2, Figure 4): layers are retrieved from the
// outmost inwards, each layer's best records join a candidate set, and
// candidates that beat the current layer's maximum are returned first.
// TraceEvent exposes exactly those steps so tools (and the Figure 4
// walkthrough example) can narrate a query; tracing costs nothing when
// no tracer is attached.

// TraceKind labels a trace event.
type TraceKind int

const (
	// TraceLayerEvaluated fires after a layer's records are scored
	// (not for a layer whose shell buckets all fall below the candidate
	// floor, which scores none).
	TraceLayerEvaluated TraceKind = iota
	// TraceCandidateKept fires when a record of the current layer joins
	// the candidate set. In a bounded search only records that pass the
	// candidate floor get there: a record scoring below the remain-th
	// candidate can never be delivered, so it is rejected without an
	// event, and a kept record may later drop out of the set unreported
	// once remain better ones are held.
	TraceCandidateKept
	// TraceResultFromCandidates fires when a candidate from an outer
	// layer is finalized because it beats the current layer's maximum.
	TraceResultFromCandidates
	// TraceResultFromLayer fires when the current layer's maximum is
	// finalized.
	TraceResultFromLayer
	// TraceDrained fires when remaining candidates are finalized after
	// the last layer.
	TraceDrained
	// TraceLayersPruned fires when the bound-based pruning of the
	// columnar path ends the walk early: Layer is the first unvisited
	// layer, Score its (sound) score bound, and Evaluated the number of
	// layers skipped.
	TraceLayersPruned
	// TraceShellsPruned fires when spherical-shell evaluation skips part
	// of a layer: Layer is the layer, Score the bound of a skipped
	// bucket, and Evaluated the number of records left unscored.
	TraceShellsPruned
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceLayerEvaluated:
		return "layer-evaluated"
	case TraceCandidateKept:
		return "candidate-kept"
	case TraceResultFromCandidates:
		return "result-from-candidates"
	case TraceResultFromLayer:
		return "result-from-layer"
	case TraceDrained:
		return "drained"
	case TraceLayersPruned:
		return "layers-pruned"
	case TraceShellsPruned:
		return "shells-pruned"
	default:
		return "unknown"
	}
}

// TraceEvent is one step of query evaluation.
type TraceEvent struct {
	Kind TraceKind
	// Layer is the 0-based layer involved (−1 for TraceDrained).
	Layer int
	// ID and Score identify the record for record-level events; for
	// TraceLayerEvaluated, Score is the layer's maximum and ID the
	// record attaining it: the best live record that passed the floor,
	// else the best record scored, tombstoned or below the floor.
	ID    uint64
	Score float64
	// Evaluated is the number of records scored in the layer
	// (TraceLayerEvaluated only).
	Evaluated int
}

// Trace attaches fn to the searcher; every subsequent evaluation step
// invokes it synchronously. Returns the searcher for chaining.
func (s *Searcher) Trace(fn func(TraceEvent)) *Searcher {
	s.trace = fn
	return s
}

func (s *Searcher) emitTrace(ev TraceEvent) {
	if s.trace != nil {
		s.trace(ev)
	}
}
