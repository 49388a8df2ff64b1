package kflex

import "kflex/internal/compile"

// PlantCompiled files the cached artifacts of from under the fingerprint of
// under, as a 64-bit fingerprint collision between the two specs would.
func (r *Runtime) PlantCompiled(from, under Spec) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.cache[specFingerprint(compileInputOf(under))] = r.cache[specFingerprint(compileInputOf(from))]
}

// ValidateLowering runs compile.Validate over the extension's lowered Unit
// and the instrumented stream it was lowered from; nil on the interpreter
// tier.
func (e *Extension) ValidateLowering() error {
	if e.art.unit == nil {
		return nil
	}
	return compile.Validate(e.art.report.Prog, e.art.unit)
}
