package supervisor

// InFlight sums the per-CPU in-flight counters: zero on a quiesced
// supervisor.
func (s *Supervisor) InFlight() int64 { return s.inflight() }

// TraceDepth and AuditDepth are the retained history windows.
const TraceDepth, AuditDepth = traceDepth, auditDepth
