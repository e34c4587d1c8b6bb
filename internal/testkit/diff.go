package testkit

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Diff compares got with want as reflect.DeepEqual does and returns the
// path of the first difference, e.g. "Copy.Pairs[17].CTo: got 0x…, want
// 0x…", or "" when there is none. Unlike DeepEqual:
//   - floats compare by bit pattern: +0 and −0 differ, a NaN equals a NaN
//     of the same bits;
//   - blank (_) struct fields are skipped, as == skips them;
//   - map entries are visited in key order, so the first difference is
//     the same on every run;
//   - a struct field or string map key (a JSON key) named in masks is
//     skipped at any depth.
//
// Unexported fields are read like exported ones. Values must be acyclic.
func Diff(got, want any, masks ...string) string {
	d := differ{}
	for _, m := range masks {
		d[m] = true
	}
	path, msg := d.diff(reflect.ValueOf(got), reflect.ValueOf(want))
	if msg == "" {
		return ""
	}
	if path = strings.TrimPrefix(path, "."); path == "" {
		path = "value"
	}
	return path + ": " + msg
}

type differ map[string]bool // the masks

// diff returns the path below g and w of their first difference and what
// differs there; the path is built on the way out, only when there is a
// difference.
func (d differ) diff(g, w reflect.Value) (path, msg string) {
	switch {
	case !g.IsValid() || !w.IsValid():
		if g.IsValid() != w.IsValid() {
			return "", fmt.Sprintf("got %s, want %s", describe(g), describe(w))
		}
		return "", ""
	case g.Type() != w.Type():
		return "", fmt.Sprintf("got type %v, want type %v", g.Type(), w.Type())
	}
	switch g.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		if g.IsNil() != w.IsNil() {
			return "", fmt.Sprintf("got %s, want %s", describe(g), describe(w))
		}
	}
	switch g.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
			return "", fmt.Sprintf("got %s (%v), want %s (%v)", scalar(g), g.Float(), scalar(w), w.Float())
		}
	case reflect.Pointer, reflect.Interface:
		if !g.IsNil() {
			return d.diff(g.Elem(), w.Elem())
		}
	case reflect.Struct:
		for i := 0; i < g.NumField(); i++ {
			if name := g.Type().Field(i).Name; name != "_" && !d[name] {
				if p, m := d.diff(g.Field(i), w.Field(i)); m != "" {
					return "." + name + p, m
				}
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < min(g.Len(), w.Len()); i++ {
			if p, m := d.diff(g.Index(i), w.Index(i)); m != "" {
				return fmt.Sprintf("[%d]%s", i, p), m
			}
		}
		if g.Len() != w.Len() {
			return "", fmt.Sprintf("got len %d, want len %d", g.Len(), w.Len())
		}
	case reflect.Map:
		for _, k := range sortedKeys(g, w) {
			if k.Kind() == reflect.String && d[k.String()] {
				continue
			}
			if p, m := d.diff(g.MapIndex(k), w.MapIndex(k)); m != "" {
				return "[" + scalar(k) + "]" + p, m
			}
		}
	case reflect.Func:
		if !g.IsNil() || !w.IsNil() {
			return "", "funcs are equal only when both are nil"
		}
	default: // booleans, numbers, strings, channels
		if !g.Equal(w) {
			return "", fmt.Sprintf("got %s, want %s", scalar(g), scalar(w))
		}
	}
	return "", ""
}

// sortedKeys is the union of two maps' keys, integers in numeric order and
// every other kind in the order of its printed form.
func sortedKeys(g, w reflect.Value) []reflect.Value {
	seen := map[string]bool{}
	var keys []reflect.Value
	for _, k := range append(g.MapKeys(), w.MapKeys()...) {
		if s := scalar(k); !seen[s] {
			seen[s] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		switch a, b := keys[i], keys[j]; {
		case a.CanInt():
			return a.Int() < b.Int()
		case a.CanUint():
			return a.Uint() < b.Uint()
		}
		return scalar(keys[i]) < scalar(keys[j])
	})
	return keys
}

// scalar prints a basic value — floats as their bits — without Interface,
// which unexported fields forbid.
func scalar(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return fmt.Sprintf("%q", v.String())
	case reflect.Float32, reflect.Float64:
		return fmt.Sprintf("0x%016x", math.Float64bits(v.Float()))
	}
	return fmt.Sprint(v)
}

// describe names a value where one side is absent or nil.
func describe(v reflect.Value) string {
	switch k := v.Kind(); {
	case k == reflect.Invalid:
		return "absent"
	case k != reflect.Slice && k != reflect.Map && k != reflect.Pointer && k != reflect.Interface:
		return scalar(v)
	case v.IsNil():
		return "nil"
	case k == reflect.Slice || k == reflect.Map:
		return fmt.Sprintf("non-nil len %d", v.Len())
	}
	return "non-nil"
}
