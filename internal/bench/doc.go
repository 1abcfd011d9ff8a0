// Package bench is the experiment harness: one registered experiment per
// paper artefact (figure, worked example, complexity claim) plus the
// extension studies, each regenerating one table.
// cmd/crbench renders all of them; bench_test.go at the repository root
// exposes each as a testing.B benchmark.
package bench
