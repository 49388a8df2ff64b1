package kflex

import (
	"errors"

	"kflex/internal/compile"
	"kflex/internal/kernel"
)

// PlantCompiled files the cached artifacts of from under the fingerprint of
// under, as a 64-bit fingerprint collision between the two specs would.
func (r *Runtime) PlantCompiled(from, under Spec) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.cache[specFingerprint(compileInputOf(under))] = r.cache[specFingerprint(compileInputOf(from))]
}

// ValidateLowering runs compile.Validate over the extension's lowered Unit
// and the instrumented stream it was lowered from, and over its callback's.
func (e *Extension) ValidateLowering() error {
	err := compile.Validate(e.art.report.Prog, e.art.unit)
	if cb := e.art.callback; cb != nil {
		err = errors.Join(err, compile.Validate(cb.report.Prog, cb.unit))
	}
	return err
}

// Kernel returns the kernel of the Runtime the extension was loaded on.
func (e *Extension) Kernel() *kernel.Kernel { return e.rt.kern }
