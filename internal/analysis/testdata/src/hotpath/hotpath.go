// Package hotpath is golden-test input for the hotpath analyzer: each
// `// want` comment is a regexp one diagnostic on that line must match.
package hotpath

import "fmt"

type iface interface{ M() }

type ptrShaped struct{ p *int } // single pointer field: stored in the iface word

func (ptrShaped) M() {}

type fatStruct struct{ a, b int }

func (fatStruct) M() {}

func sink(i iface)       {}
func variadic(xs ...int) {}
func use(args ...any)    { _ = args }
func helper() []int      { return mk() }
func mk() []int          { return make([]int, 4) } // want `make allocates`

//scrub:allowalloc(slow path: exercised only at startup)
func coldInit() map[string]int { return map[string]int{"a": 1} }

//scrub:hotpath
func Hot(buf []byte, xs []int, s string, p ptrShaped, f fatStruct) []byte {
	m := make(map[string]int) // want `make allocates`
	_ = m
	n := new(int) // want `new allocates`
	_ = n
	sl := []int{1, 2, 3} // want `slice literal allocates`
	_ = sl
	ml := map[int]int{} // want `map literal allocates`
	_ = ml
	var n2 int32
	pp := &fatStruct{a: 1} // want `&composite literal escapes`
	_ = pp
	fn := func() {} // want `function literal allocates a closure`
	fn()
	go use()           // want `go statement allocates a goroutine`
	s2 := s + "suffix" // want `string concatenation allocates`
	_ = s2
	bs := []byte(s) // want `conversion copies and allocates`
	_ = bs
	fmt.Println(s)     // want `fmt.Println allocates`
	xs = append(xs, 1) // ok: self-assign reuse idiom
	_ = xs
	ys := append(xs, 2) // want `append may grow and allocate`
	_ = ys
	variadic(1, 2, 3) // want `variadic call allocates its argument slice`
	sink(p)           // ok: pointer-shaped value boxes without allocating
	sink(f)           // want `boxes non-pointer-shaped`
	_ = helper()      // transitive: helper -> mk is checked above
	_ = coldInit()    // ok: //scrub:allowalloc function, not traversed
	_ = widen(&n2)    // ok: a type argument is substituted, not boxed
	//scrub:allowalloc(suppressed for the golden test)
	z := make([]int, 8) // ok: line-level escape hatch
	_ = z
	return appendHeader(buf)
}

// widen is reached from Hot: converting to its type parameter converts to
// the type argument, which boxes nothing.
func widen[T ~int32 | ~int64](x *T) int64 {
	*x = T(int64(*x) + 1)
	return int64(*x)
}

// appendHeader is reached transitively from Hot; the builder idiom
// (return append(param, …)) is allowed.
func appendHeader(dst []byte) []byte {
	return append(dst, 0x1)
}
