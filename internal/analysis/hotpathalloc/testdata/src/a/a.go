// Package a exercises the hotpath allocation rules, including the case
// AllocsPerRun cannot pin down statically: a hotpath calling a
// non-hotpath helper (local or imported) whose allocation only fires on
// input shapes the benchmarks never exercise.
package a

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/helpers"
)

//mldcs:hotpath
func hotConstructs(xs []int, prefix, suffix string, dst []int) ([]int, string) {
	seen := map[int]bool{} // want `map literal`
	_ = seen
	buf := make([]int, 0, len(xs)) // want `make`
	_ = buf
	var fresh []int
	fresh = append(fresh, len(xs)) // want `append to non-scratch slice`
	_ = fresh
	dst = append(dst, len(xs)) // parameter: caller-owned buffer, amortized growth
	name := prefix + suffix    // want `string concatenation`
	return dst, name
}

//mldcs:hotpath
func hotClosure(xs []int) int {
	total := 0
	walk(func(x int) { // want `closure capturing total`
		total += x
	}, xs)
	return total
}

func walk(f func(int), xs []int) {
	for _, x := range xs {
		f(x)
	}
}

func sink(v interface{}) {}

//mldcs:hotpath
func hotBoxing(x int) {
	sink(x) // want `interface boxing of int`
}

func sinkAny(v any) {}

func generic[T any](v T) T { return v }

type pair struct {
	key int64
	id  int
}

// hotGeneric: a generic call passes its arguments at their instantiated
// types, so none of these box; a concrete value passed to an any
// parameter still does.
//
//mldcs:hotpath
func hotGeneric(ps []pair, x int) int {
	slices.SortFunc(ps, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
	sinkAny(x) // want `interface boxing of int`
	return generic(x)
}

//mldcs:hotpath
func hotFmt(x int) string {
	return fmt.Sprintf("%d", x) // want `call into fmt`
}

// pad allocates only when called; the hotpath below launders the
// allocation through it.
func pad(n int) []int {
	return make([]int, n)
}

//mldcs:hotpath
func hotLocalHelper(n int) int {
	p := pad(n) // want `which allocates \(make\)`
	return len(p)
}

//mldcs:hotpath
func hotImportedHelper(xs []int) int {
	ys := helpers.Canon(xs) // want `which allocates \(make\)`
	return helpers.Sum(ys)
}

// hotAllowed: a deliberate cold-path allocation, suppressed with a
// reviewed reason.
//
//mldcs:hotpath
func hotAllowed(n int) []int {
	//mldcslint:allow hotpathalloc cold rebuild path, runs once per epoch
	return make([]int, n)
}

// coldConstructs: the same constructs outside a hotpath are fine.
func coldConstructs(xs []int) map[int]bool {
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return seen
}
