package database

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// decodeJSONReference is the encoding/json decoder DecodeJSON replaced,
// kept as the differential reference for FuzzLoadJSON and the decoder
// tests: decode into [][]string, then insert each row as a tuple.
func decodeJSONReference(r io.Reader) (db *Database, err error) {
	defer wrapLoadPanic("JSON", &err)
	defer guard.Protect(&err)
	var in jsonDatabase
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("database: decoding JSON: %w", err)
	}
	if len(in.Relations) == 0 {
		return nil, fmt.Errorf("database: JSON contains no relations")
	}
	if len(in.Relations) > hypergraph.MaxRelations {
		return nil, fmt.Errorf("database: JSON has %d relations", len(in.Relations))
	}
	rels := make([]*relation.Relation, len(in.Relations))
	dict := relation.NewDict()
	for i, jr := range in.Relations {
		if len(jr.Attrs) == 0 {
			return nil, fmt.Errorf("database: relation %d has no attributes", i)
		}
		attrs := make([]relation.Attr, len(jr.Attrs))
		for j, a := range jr.Attrs {
			attrs[j] = relation.Attr(a)
		}
		schema := relation.NewSchema(attrs...)
		if schema.Len() != len(attrs) {
			return nil, fmt.Errorf("database: relation %d has duplicate attributes", i)
		}
		rel := relation.NewIn(dict, jr.Name, schema)
		for k, row := range jr.Rows {
			if len(row) != len(attrs) {
				return nil, fmt.Errorf("database: relation %d: JSON row %d has %d values", i, k+1, len(row))
			}
			t := make(relation.Tuple, len(attrs))
			for j, v := range row {
				t[attrs[j]] = relation.Value(v)
			}
			rel.Insert(t)
		}
		rels[i] = rel
	}
	return New(rels...), nil
}

// newRejection reports whether data, which decodeJSONReference accepts,
// holds one of the three inputs DecodeJSON rejects on purpose: a
// repeated key in the database or a relation object, a null inside
// "attrs" or a row, or bytes other than whitespace after the database.
// It walks the document with encoding/json's own tokenizer.
func newRejection(data []byte) bool {
	w := refWalker{dec: json.NewDecoder(bytes.NewReader(data))}
	w.object([]string{"relations"}, func(int) {
		w.array(func() {
			w.object([]string{"name", "attrs", "rows"}, func(field int) {
				switch field {
				case 1:
					w.strings()
				case 2:
					w.array(w.strings)
				default:
					w.skip()
				}
			})
		})
	})
	return w.hit || w.trailing(data)
}

// refWalker walks a document the reference decoder accepted, noting in
// hit any repeated field or null string it passes.
type refWalker struct {
	dec *json.Decoder
	hit bool
}

// object walks an object, calling member for each key that selects one
// of fields (case-insensitively, as encoding/json matches) and skipping
// the values of the others.
func (w *refWalker) object(fields []string, member func(field int)) {
	if tok, _ := w.dec.Token(); tok != json.Delim('{') {
		return
	}
	seen := make(map[int]bool)
	for w.dec.More() {
		tok, _ := w.dec.Token()
		key, _ := tok.(string)
		field := -1
		for i, f := range fields {
			if strings.EqualFold(key, f) {
				field = i
			}
		}
		if field < 0 {
			w.skip()
			continue
		}
		w.hit = w.hit || seen[field]
		seen[field] = true
		member(field)
	}
	w.dec.Token()
}

func (w *refWalker) array(elem func()) {
	if tok, _ := w.dec.Token(); tok != json.Delim('[') {
		return
	}
	for w.dec.More() {
		elem()
	}
	w.dec.Token()
}

// strings walks an array of strings, noting a null element.
func (w *refWalker) strings() {
	w.array(func() {
		if tok, _ := w.dec.Token(); tok == nil {
			w.hit = true
		}
	})
}

// skip consumes one value.
func (w *refWalker) skip() {
	for depth := 0; ; {
		tok, err := w.dec.Token()
		if err != nil {
			return
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			return
		}
	}
}

// trailing reports whether anything but whitespace follows the value
// the walk consumed.
func (w *refWalker) trailing(data []byte) bool {
	return len(bytes.TrimLeft(data[w.dec.InputOffset():], " \t\r\n")) > 0
}

// digest renders what the decoders must agree on: names, schemas, rows
// in order, and the dictionary's values in ID order.
func digest(db *Database) string {
	var b bytes.Buffer
	if err := EncodeJSON(&b, db); err != nil {
		return "encode: " + err.Error()
	}
	dict := db.Relation(0).Dict()
	vals := make([]relation.Value, dict.Len())
	for id := range vals {
		vals[id] = dict.Value(uint32(id))
	}
	enc, err := json.Marshal(vals)
	if err != nil {
		return "marshal: " + err.Error()
	}
	b.Write(enc)
	return b.String()
}

// checkAgainstReference decodes data with both decoders and reports how
// they differ: nil when they agree (both reject, or both build the same
// database) or when DecodeJSON's rejection is one of the three new ones.
func checkAgainstReference(data []byte) error {
	db, err := DecodeJSON(bytes.NewReader(data))
	ref, refErr := decodeJSONReference(bytes.NewReader(data))
	switch {
	case err != nil && refErr == nil:
		if newRejection(data) {
			return nil
		}
		return fmt.Errorf("DecodeJSON rejects what encoding/json accepts: %v", err)
	case err == nil && refErr != nil:
		return fmt.Errorf("DecodeJSON accepts what encoding/json rejects: %v", refErr)
	case err != nil:
		return nil
	}
	if got, want := digest(db), digest(ref); got != want {
		return fmt.Errorf("decoded databases differ:\n got %s\nwant %s", got, want)
	}
	return nil
}
