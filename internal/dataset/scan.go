package dataset

import (
	"encoding/json"
	"strings"
)

// maxPresizedRecords bounds the capacity ScanAppendBody gives its result
// before it has seen a single record; a longer batch grows it by append.
const maxPresizedRecords = 1 << 16

// scanner reads the canonical form of the two record-carrying JSON
// shapes — ReadJSON's document and the daemon's append body — out of one
// string, handing out fields as substrings of it: no reflection, no
// allocation per field. It is not a JSON parser. It recognises what
// WriteJSON, encoding/json-based clients and hand-written files of the
// documented shape contain: the known keys, spelled exactly, each at most
// once, with string leaves. At anything else — an unknown, repeated or
// case-folded key, a null, a leaf of another type, a syntax error — it
// stops, and the caller decodes the same bytes with the encoding/json
// structs, which thus still define what is accepted and why something is
// rejected. The input alone makes the choice, so the two must agree
// wherever the scanner answers: FuzzReadJSON and FuzzAppendBody hold them
// to it. Like json.Decoder.Decode, it reads one value and ignores what
// follows.
type scanner struct {
	s string
	i int
}

// next skips white space and returns the byte the scanner then stands on
// (0 at the end of input) without consuming it.
func (sc *scanner) next() byte {
	for ; sc.i < len(sc.s); sc.i++ {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return sc.s[sc.i]
		}
	}
	return 0
}

// eat consumes c if it is the next byte after white space.
func (sc *scanner) eat(c byte) bool {
	if sc.next() != c {
		return false
	}
	sc.i++
	return true
}

// str reads a string literal. One made of printable ASCII without
// escapes is its own decoding and comes back as a substring; any other is
// cut out and decoded by encoding/json, so escapes, surrogate pairs and
// invalid UTF-8 come out exactly as its decoder would make them.
func (sc *scanner) str() (string, bool) {
	if !sc.eat('"') {
		return "", false
	}
	start := sc.i
	for ; sc.i < len(sc.s); sc.i++ {
		c := sc.s[sc.i]
		if c == '"' {
			sc.i++
			return sc.s[start : sc.i-1], true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	for ; sc.i < len(sc.s); sc.i++ {
		switch sc.s[sc.i] {
		case '\\':
			sc.i++
		case '"':
			sc.i++
			var out string
			err := json.Unmarshal([]byte(sc.s[start-1:sc.i]), &out)
			return out, err == nil
		}
	}
	return "", false
}

// list reads `[` elem, elem, … `]`, calling elem once per element.
func (sc *scanner) list(elem func() bool) bool {
	if !sc.eat('[') {
		return false
	}
	if sc.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if sc.eat(']') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// object reads `{` "key": member, … `}`, calling member with every
// decoded key.
func (sc *scanner) object(member func(key string) bool) bool {
	if !sc.eat('{') {
		return false
	}
	if sc.eat('}') {
		return true
	}
	for {
		key, ok := sc.str()
		if !ok || !sc.eat(':') || !member(key) {
			return false
		}
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// records reads an array of {"s":…,"d":…,"v":…} objects, passing each to
// emit. A key may be absent (its field stays empty) but not repeated.
func (sc *scanner) records(emit func(Record)) bool {
	return sc.list(func() bool {
		var (
			rec  Record
			seen [3]bool
		)
		ok := sc.object(func(key string) bool {
			var field *string
			var k int
			switch key {
			case "s":
				field, k = &rec.Source, 0
			case "d":
				field, k = &rec.Item, 1
			case "v":
				field, k = &rec.Value, 2
			default:
				return false
			}
			if seen[k] {
				return false
			}
			seen[k] = true
			var ok bool
			*field, ok = sc.str()
			return ok
		})
		if ok {
			emit(rec)
		}
		return ok
	})
}

// ScanAppendBody parses the daemon's append body,
//
//	{"observations":[{"s":…,"d":…,"v":…},…],"truth":[{"d":…,"v":…},…]}
//
// when it is in canonical form (see scanner): ok is false when it is
// not, and the caller then decodes body with encoding/json. The records
// it returns hold substrings of body.
func ScanAppendBody(body string) (obs, truth []Record, ok bool) {
	sc := scanner{s: body}
	var seenObs, seenTruth bool
	ok = sc.object(func(key string) bool {
		var into *[]Record
		switch {
		case key == "observations" && !seenObs:
			// One brace opens each record in a canonical body; a body of
			// nothing but braces must not size the slice.
			obs = make([]Record, 0, min(strings.Count(body[sc.i:], "{"), maxPresizedRecords))
			into, seenObs = &obs, true
		case key == "truth" && !seenTruth:
			into, seenTruth = &truth, true
		default:
			return false
		}
		return sc.records(func(rec Record) { *into = append(*into, rec) })
	})
	if !ok {
		return nil, nil, false
	}
	return obs, truth, true
}

// scanDocument feeds the document WriteJSON writes,
//
//	{"sources":[…],"items":[…],"observations":[{"s":…,"d":…,"v":…},…],"truth":{item:value,…}}
//
// into b as it reads it, and reports whether the document was in
// canonical form; when it was not, b holds a part of it and must be
// discarded. Beyond the scanner's own rules the keys present must come in
// the order above, because that is the order ReadJSON has always applied
// them in, whatever order the file had them in, and ids follow it. Truth
// is applied in document order; an item named twice would make the
// earlier value a label that encoding/json's map never sees, so it is
// not canonical.
func scanDocument(doc string, b *Builder) bool {
	sc := scanner{s: doc}
	stage := 0
	return sc.object(func(key string) bool {
		at := 0
		switch key {
		case "sources":
			at = 1
		case "items":
			at = 2
		case "observations":
			at = 3
		case "truth":
			at = 4
		}
		if at <= stage {
			return false // unknown, repeated or out of order
		}
		stage = at
		switch at {
		case 1, 2:
			return sc.list(func() bool {
				name, ok := sc.str()
				if ok && at == 1 {
					b.Source(name)
				} else if ok {
					b.Item(name)
				}
				return ok
			})
		case 3:
			return sc.records(func(rec Record) { b.Add(rec.Source, rec.Item, rec.Value) })
		default:
			return sc.object(func(item string) bool {
				value, ok := sc.str()
				if !ok {
					return false
				}
				d := b.Item(item)
				if b.items[d].truth != NoValue {
					return false
				}
				b.SetTruthIDs(d, b.Value(d, value))
				return true
			})
		}
	})
}
