package check

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"winlab/internal/trace"
)

// FirstDiff walks a and b (structs, slices, maps, pointers — anything
// reflect can see) and returns a description of the first field at
// which they differ, or "" when they are equal. Unlike
// reflect.DeepEqual it reports *where* the divergence is (a dotted
// field path with indices), compares time.Time with Equal (so a UTC
// and a +00:00 reading of the same instant match), and compares floats
// bitwise (the repo's equivalence claims are bit-identical, not
// approximately-equal; NaN == NaN under this rule). Unexported struct
// fields are compared too — a stats.Running keeps all its state in them
// — and read through reflect's typed getters, never Interface(); a
// time.Time reached through one is compared field by field, not with
// Equal. Every field counts, so FirstDiff is for values (results,
// stats), not for handles carrying locks or caches.
//
// The differential validator uses it to reduce "serial and parallel
// runs disagree" to a single actionable coordinate such as
//
//	.Samples[3812].CPUIdle: 17h3m0s != 17h2m45s
func FirstDiff(a, b any) string {
	return firstDiff(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

var timeType = reflect.TypeOf(time.Time{})

func firstDiff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() {
		return fmt.Sprintf("%s: one side missing", orRoot(path))
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %s != %s", orRoot(path), a.Type(), b.Type())
	}
	if a.Type() == timeType && a.CanInterface() {
		ta, tb := a.Interface().(time.Time), b.Interface().(time.Time)
		if !ta.Equal(tb) {
			return fmt.Sprintf("%s: %s != %s", orRoot(path), fmtT(ta), fmtT(tb))
		}
		return ""
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if x, y := a.Float(), b.Float(); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s: %v != %v", orRoot(path), x, y)
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil != non-nil", orRoot(path))
		}
		if !a.IsNil() {
			return firstDiff(a.Elem(), b.Elem(), path)
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+t.Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", orRoot(path), a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: map length %d != %d", orRoot(path), a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			kp := fmt.Sprintf("%s[%v]", path, iter.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s: key only on one side", orRoot(kp))
			}
			if d := firstDiff(iter.Value(), bv, kp); d != "" {
				return d
			}
		}
	case reflect.Func:
		// As reflect.DeepEqual: funcs are equal only when both are nil.
		if !a.IsNil() || !b.IsNil() {
			return fmt.Sprintf("%s: values differ", orRoot(path))
		}
	default:
		// Comparable scalars: bool, ints, uints, string, complex, chan…
		// Equal and fmt's reflect.Value operand both read an unexported
		// value through the typed getters.
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v != %v", orRoot(path), a, b)
		}
	}
	return ""
}

func orRoot(path string) string {
	if path == "" {
		return "value"
	}
	return path
}

// DiffDatasets compares two datasets down to the first divergent field
// and returns a description addressed with machine/iteration
// coordinates, or "" when the datasets are identical (bit-identical
// floats, instant-equal times, same sample order). Order matters: the
// pipeline's equivalence claims are about byte-for-byte reproducibility,
// not set equality.
func DiffDatasets(a, b *trace.Dataset) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return "one dataset is nil"
	}
	if !a.Start.Equal(b.Start) {
		return fmt.Sprintf(".Start: %s != %s", fmtT(a.Start), fmtT(b.Start))
	}
	if !a.End.Equal(b.End) {
		return fmt.Sprintf(".End: %s != %s", fmtT(a.End), fmtT(b.End))
	}
	if a.Period != b.Period {
		return fmt.Sprintf(".Period: %s != %s", a.Period, b.Period)
	}
	if len(a.Machines) != len(b.Machines) {
		return fmt.Sprintf(".Machines: length %d != %d", len(a.Machines), len(b.Machines))
	}
	for i := range a.Machines {
		if d := FirstDiff(a.Machines[i], b.Machines[i]); d != "" {
			return fmt.Sprintf(".Machines[%d] (id=%s) %s", i, a.Machines[i].ID, d)
		}
	}
	if len(a.Iterations) != len(b.Iterations) {
		return fmt.Sprintf(".Iterations: length %d != %d", len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Iterations {
		if d := FirstDiff(a.Iterations[i], b.Iterations[i]); d != "" {
			return fmt.Sprintf(".Iterations[%d] (iter=%d) %s", i, a.Iterations[i].Iter, d)
		}
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Sprintf(".Samples: length %d != %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if d := FirstDiff(a.Samples[i], b.Samples[i]); d != "" {
			return fmt.Sprintf(".Samples[%d] (machine=%s iter=%d) %s", i, a.Samples[i].Machine, a.Samples[i].Iter, d)
		}
	}
	return ""
}
