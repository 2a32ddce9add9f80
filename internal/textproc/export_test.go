package textproc

// AnalyzeWord exposes the uncached per-word decision to the external
// tests, which compare it with the memoized path.
func (p *Pipeline) AnalyzeWord(w string) string { return p.analyzeWord(w) }
