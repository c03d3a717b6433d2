package core

// withoutStepMemo disables p's step memo, so every step executes: the
// reference side of the step-memo tests. Call it before the first Run.
func withoutStepMemo(p *Pool) *Pool {
	p.memo = nil
	return p
}

// dropWorkers discards p's worker scratch, so its next Run builds fresh
// workers: the reference side of the persistent-worker test.
func dropWorkers(p *Pool) {
	p.ws = nil
}
