package model

// IsCompiled reports whether t holds a memoised plan, for the tests of
// the compile-free paths in package model_test.
func IsCompiled(t *Tree) bool { return t.cpl.Load() != nil }
