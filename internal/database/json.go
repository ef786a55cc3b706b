package database

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/jsonlex"
	"multijoin/internal/relation"
)

// JSON interchange format for databases, used by cmd/joinopt and, inside
// the request envelope, by joinserve:
//
//	{
//	  "relations": [
//	    {"name": "R1", "attrs": ["A", "B"], "rows": [["p", "0"], ["q", "0"]]},
//	    ...
//	  ]
//	}
//
// Row values are positional in the order of "attrs" as written (not the
// sorted schema order), so files read naturally. Keys may come in any
// order and match case-insensitively, as encoding/json matches struct
// fields; unknown keys are checked for syntax and skipped. The decoder
// rejects three inputs encoding/json would take:
//
//   - a repeated key in the database or a relation object (encoding/json
//     merged the two values);
//   - null inside "attrs" or inside a row (encoding/json read it as the
//     empty string). A null "name" or "rows" still means the field is
//     absent;
//   - anything but whitespace after the database object.

type jsonRelation struct {
	Name  string     `json:"name"`
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

type jsonDatabase struct {
	Relations []jsonRelation `json:"relations"`
}

// EncodeJSON writes the database in the interchange format.
func EncodeJSON(w io.Writer, db *Database) error {
	out := jsonDatabase{Relations: make([]jsonRelation, db.Len())}
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		jr := jsonRelation{Name: r.Name(), Attrs: make([]string, len(attrs))}
		for j, a := range attrs {
			jr.Attrs[j] = string(a)
		}
		for _, row := range r.Rows() {
			vals := make([]string, len(row))
			for j, v := range row {
				vals[j] = string(v)
			}
			jr.Rows = append(jr.Rows, vals)
		}
		out.Relations[i] = jr
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeJSON reads a database in the interchange format. The input is
// untrusted: malformed JSON and structural violations (no relations, too
// many relations, duplicate attributes, ragged rows) come back as
// errors, and any residual invariant panic in the relation layer is
// converted to an error rather than crashing the caller.
func DecodeJSON(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("database: reading JSON: %w", err)
	}
	l := jsonlex.New(data)
	db, err := ReadJSON(l)
	if err != nil {
		return nil, err
	}
	if err := l.End(); err != nil {
		return nil, fmt.Errorf("database: decoding JSON: %w", err)
	}
	return db, nil
}

// ReadJSON decodes the interchange-format database at l's cursor in one
// pass, leaving the cursor just past it. Each row value is interned into
// its relation's ID slab straight from the input bytes; a relation's
// rows written before its "attrs" are skipped once and read when the
// object ends. joinserve's envelope decoder calls it on the request's
// "database" value.
func ReadJSON(l *jsonlex.Lexer) (db *Database, err error) {
	defer wrapLoadPanic("JSON", &err)
	defer guard.Protect(&err)
	// One dictionary per decoded database; see LoadCSVDir.
	d := jsonDecoder{l: l, dict: relation.NewDict()}
	err = l.Object(databaseFields, func(field int, _ []byte) error {
		if field < 0 {
			return l.Skip()
		}
		if l.Null() {
			return nil
		}
		return l.Array(d.relation)
	})
	// The decoder's own errors arrive prefixed and wrapped; a bare
	// lexer error is malformed JSON outside any row.
	if _, bare := err.(*jsonlex.SyntaxError); bare {
		return nil, fmt.Errorf("database: decoding JSON: %w", err)
	}
	if err != nil {
		return nil, err
	}
	if len(d.rels) == 0 {
		return nil, fmt.Errorf("database: JSON contains no relations")
	}
	return New(d.rels...), nil
}

var (
	databaseFields = []string{"relations"}
	relationFields = []string{"name", "attrs", "rows"}
)

// jsonDecoder holds one database decode's state.
type jsonDecoder struct {
	l    *jsonlex.Lexer
	dict *relation.Dict
	rels []*relation.Relation
	vals [][]byte // one row's values, reused
}

// relation decodes the relation object at the cursor and appends it.
func (d *jsonDecoder) relation() error {
	i := len(d.rels)
	if i == hypergraph.MaxRelations {
		return fmt.Errorf("database: JSON has more than %d relations, the engine supports at most %d",
			i, hypergraph.MaxRelations)
	}
	l := d.l
	var (
		name   string
		ld     *relation.Loader // set once "attrs" has been read
		rowsAt = -1             // offset of "rows" read before "attrs"
	)
	err := l.Object(relationFields, func(field int, _ []byte) error {
		switch field {
		case 0:
			if l.Null() {
				return nil
			}
			s, err := l.String()
			name = string(s)
			return err
		case 1:
			var err error
			ld, err = d.attrs(i, name)
			return err
		case 2:
			if ld == nil {
				rowsAt = l.Start()
				return l.Skip()
			}
			return d.rows(ld, i, name)
		}
		return l.Skip()
	})
	if err != nil {
		return err
	}
	if ld == nil {
		return fmt.Errorf("database: relation %d (%s) has no attributes", i, name)
	}
	if rowsAt >= 0 {
		end := l.Pos()
		l.Seek(rowsAt)
		if err := d.rows(ld, i, name); err != nil {
			return err
		}
		l.Seek(end)
	}
	rel := ld.Relation()
	if rel.Name() != name {
		rel = rel.WithName(name)
	}
	d.rels = append(d.rels, rel)
	return nil
}

// attrs reads relation i's attribute list and returns a loader over it.
func (d *jsonDecoder) attrs(i int, name string) (*relation.Loader, error) {
	if d.l.Null() {
		return nil, fmt.Errorf("database: relation %d (%s) has no attributes", i, name)
	}
	vals, err := d.l.Strings(d.vals[:0])
	if err != nil {
		return nil, fmt.Errorf("database: relation %s (index %d): attrs: %w", relName(name, i), i, err)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("database: relation %d (%s) has no attributes", i, name)
	}
	attrs := make([]relation.Attr, len(vals))
	for j, v := range vals {
		attrs[j] = relation.Attr(v)
	}
	ld, ok := relation.NewLoader(d.dict, name, attrs)
	if !ok {
		return nil, fmt.Errorf("database: relation %d (%s) has duplicate attributes", i, name)
	}
	return ld, nil
}

// rows reads relation i's rows into ld. A null "rows" holds no rows.
func (d *jsonDecoder) rows(ld *relation.Loader, i int, name string) error {
	if d.l.Null() {
		return nil
	}
	row := 0
	return d.l.Array(func() error {
		row++
		vals, err := d.l.Strings(d.vals[:0])
		d.vals = vals
		if err == nil {
			err = ld.Add(vals)
		}
		if err != nil {
			return fmt.Errorf("database: relation %s (index %d): JSON row %d: %w",
				relName(name, i), i, row, err)
		}
		return nil
	})
}

// relName returns the relation's declared name, or a positional
// placeholder for anonymous relations, so loader errors always name the
// offender.
func relName(name string, index int) string {
	if name == "" {
		return fmt.Sprintf("#%d", index)
	}
	return name
}

// wrapLoadPanic, deferred after guard.Protect in the load paths, gives a
// recovered relation/hypergraph invariant panic a loader-specific
// message naming the input format.
func wrapLoadPanic(format string, errp *error) {
	var pe *guard.PanicError
	if errors.As(*errp, &pe) {
		*errp = fmt.Errorf("database: malformed %s input: %v", format, pe.Value)
	}
}
