package kflex

// PlantCompiled files the cached artifacts of from under the fingerprint of
// under, as a 64-bit fingerprint collision between the two specs would.
func (r *Runtime) PlantCompiled(from, under Spec) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.cache[specFingerprint(compileInputOf(under))] = r.cache[specFingerprint(compileInputOf(from))]
}
