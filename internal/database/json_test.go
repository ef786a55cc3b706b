package database

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"multijoin/internal/relation"
)

func TestJSONRoundTrip(t *testing.T) {
	db := exampleDB()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("len %d, want %d", back.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if !back.Relation(i).Equal(db.Relation(i)) {
			t.Fatalf("relation %d differs after round trip", i)
		}
		if back.Relation(i).Name() != db.Relation(i).Name() {
			t.Fatalf("relation %d name lost", i)
		}
	}
}

func TestDecodeJSONHandWritten(t *testing.T) {
	src := `{"relations": [
	  {"name": "R", "attrs": ["B", "A"], "rows": [["x", "1"], ["y", "2"]]}
	]}`
	db, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Rows are positional in the written attribute order, not sorted.
	want := relation.FromTuples("R", relation.SchemaFromString("AB"),
		relation.Tuple{"A": "1", "B": "x"},
		relation.Tuple{"A": "2", "B": "y"})
	if !db.Relation(0).Equal(want) {
		t.Fatalf("decoded %v, want %v", db.Relation(0), want)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"relations": []}`,
		`{"relations": [{"name": "R", "attrs": [], "rows": []}]}`,
		`{"relations": [{"name": "R", "attrs": ["A", "A"], "rows": []}]}`,
		`{"relations": [{"name": "R", "attrs": ["A"], "rows": [["1", "2"]]}]}`,
	}
	for _, src := range cases {
		if _, err := DecodeJSON(strings.NewReader(src)); err == nil {
			t.Errorf("DecodeJSON(%q) should fail", src)
		}
	}
}

// TestDecodeJSONErrorsCarryPosition is the loader-diagnostics
// regression for the JSON format: ragged rows name the relation and the
// 1-based row, and syntax errors report the byte offset.
func TestDecodeJSONErrorsCarryPosition(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(
		`{"relations": [{"name": "lineitem", "attrs": ["A", "B"], "rows": [["1", "x"], ["2"]]}]}`))
	if err == nil {
		t.Fatal("ragged row should fail")
	}
	for _, want := range []string{"lineitem", "row 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	_, err = DecodeJSON(strings.NewReader(`{"relations": [}`))
	if err == nil {
		t.Fatal("syntax error should fail")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("syntax error %q missing byte offset", err)
	}

	// An anonymous relation still gets a positional name.
	_, err = DecodeJSON(strings.NewReader(
		`{"relations": [{"attrs": ["A"], "rows": [["1", "2"]]}]}`))
	if err == nil || !strings.Contains(err.Error(), "#0") {
		t.Errorf("anonymous relation error %v missing positional name", err)
	}
}

// TestDecodeJSONNewRejections pins the three inputs the encoding/json
// decoder accepted and the single-pass decoder rejects: bytes after the
// database, a repeated key (encoding/json merged the two values), and a
// null inside "attrs" or a row (encoding/json read it as "").
func TestDecodeJSONNewRejections(t *testing.T) {
	const rel = `{"name": "R", "attrs": ["X", "Y"], "rows": [["1", "2"]]}`
	cases := []struct {
		name, src string
		want      []string // substrings of the error
	}{
		{"trailing brackets", `{"relations": [` + rel + `]} ]]] garbage`, []string{"after top-level value"}},
		{"trailing brace", `{"relations": [` + rel + `]} }`, []string{"after top-level value"}},
		{"trailing value", `{"relations": [` + rel + `]} {}`, []string{"after top-level value"}},
		{"repeated relations", `{"relations": [` + rel + `], "relations": [{"attrs": ["X", "Z"]}]}`,
			[]string{"repeated key"}},
		{"repeated rows", `{"relations": [{"attrs": ["X"], "rows": [["1"]], "rows": [["2"]]}]}`,
			[]string{"repeated key"}},
		{"repeated name", `{"relations": [{"name": "R", "name": "S", "attrs": ["X"]}]}`, []string{"repeated key"}},
		{"repeated key differing in case", `{"relations": [{"attrs": ["X"], "Attrs": ["Y"]}]}`,
			[]string{"repeated key"}},
		{"null row value", `{"relations": [{"name": "R", "attrs": ["X", "Y"], "rows": [["1", "2"], [null, "2"], ["", "2"]]}]}`,
			[]string{"relation R", "row 2", "null"}},
		{"null attribute", `{"relations": [{"name": "R", "attrs": ["X", null], "rows": []}]}`,
			[]string{"relation R", "attrs", "null"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeJSON(strings.NewReader(c.src))
			if err == nil {
				t.Fatalf("DecodeJSON(%s) accepted", c.src)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q missing %q", err, w)
				}
			}
		})
	}
}

// TestDecodeJSONMatchesEncodingJSON pins inputs where the single-pass
// decoder must build exactly what the encoding/json decoder built: keys
// in any order or case, unknown keys, nulls meaning absent fields, and
// strings that take encoding/json's own decoding.
func TestDecodeJSONMatchesEncodingJSON(t *testing.T) {
	for _, src := range []string{
		`{"relations": [{"rows": [["x", "1"], ["y", "2"], ["x", "1"]], "attrs": ["B", "A"], "name": "R"}]}`,
		`{"RELATIONS": [{"Name": "R", "ATTRS": ["A"], "Rows": [["1"]]}]}`,
		`{"note": {"deep": [[{}], 1.5e-3, false, null, "s"]}, "relations": [{"attrs": ["A"], "why": [], "rows": [["1"]]}]}`,
		`{"relations": [{"name": null, "attrs": ["A"], "rows": null}, {"attrs": ["B"]}]}`,
		`{"relations": [{"name": "é", "attrs": ["A\u0000"], "rows": [["😀"], ["\ud800"], ["\/\b\f\n\r\t\""]]}]}`,
		"{\"relations\": [{\"attrs\": [\"A\"], \"rows\": [[\"\xff\xfe\"], [\"caf\xc3\xa9\"]]}]}\n\t ",
		`{"relations": [{"attrs": ["B", "A"], "rows": [["b1", "a1"]]}, {"attrs": ["C", "A"], "rows": [["c1", "a1"], ["c2", "b1"]]}]}`,
	} {
		if _, err := DecodeJSON(strings.NewReader(src)); err != nil {
			t.Errorf("DecodeJSON(%s): %v", src, err)
			continue
		}
		if err := checkAgainstReference([]byte(src)); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// TestDecodeJSONDeepNesting feeds an unknown key 100 000 open brackets
// deep: the decoder must report encoding/json's depth limit, not
// overflow the stack.
func TestDecodeJSONDeepNesting(t *testing.T) {
	src := `{"relations": [{"attrs": ["A"], "x": ` + strings.Repeat("[", 100000) + `}]}`
	_, err := DecodeJSON(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Fatalf("deep nesting: got %v, want the max-depth error", err)
	}
}

// escapeDB holds names, attributes and values that encoding/json
// escapes or rewrites — quotes, backslashes, HTML characters, control
// and line-separator runes, invalid UTF-8 — next to plain non-ASCII
// text, and a relation with no rows.
func escapeDB() *Database {
	r := relation.FromRows(`R"<1>"`, relation.NewSchema("<A>", "Ä&B"),
		[]relation.Value{`say "hi"`, `back\slash`},
		[]relation.Value{"<script>&amp;", "tab\tnew\nline"},
		[]relation.Value{"é∑😀", "\u2028sep\u2029 \xff"})
	return New(r, relation.New("empty", relation.NewSchema("Z")))
}

// encodeJSONIndented is EncodeJSON as it was before MarshalJSON: one
// json.Encoder, indenting, over the interchange struct.
func encodeJSONIndented(w io.Writer, db *Database) error {
	out := jsonDatabase{Relations: make([]jsonRelation, db.Len())}
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		jr := jsonRelation{Name: r.Name()}
		for _, a := range r.Schema().Attrs() {
			jr.Attrs = append(jr.Attrs, string(a))
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

// TestEncodeJSONMatchesIndentingEncoder: EncodeJSON, now json.Indent of
// MarshalJSON, writes the bytes the indenting encoder wrote, and
// MarshalJSON is their compact form.
func TestEncodeJSONMatchesIndentingEncoder(t *testing.T) {
	for _, db := range []*Database{exampleDB(), escapeDB()} {
		var got, want bytes.Buffer
		if err := EncodeJSON(&got, db); err != nil {
			t.Fatal(err)
		}
		if err := encodeJSONIndented(&want, db); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("EncodeJSON wrote\n%s\nthe indenting encoder\n%s", got.Bytes(), want.Bytes())
		}
		compact, err := MarshalJSON(db)
		if err != nil {
			t.Fatal(err)
		}
		var wantCompact bytes.Buffer
		if err := json.Compact(&wantCompact, want.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact, wantCompact.Bytes()) {
			t.Fatalf("MarshalJSON wrote\n%s\nwant\n%s", compact, wantCompact.Bytes())
		}
	}
}
