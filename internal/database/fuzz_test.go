package database

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"multijoin/internal/guard"
)

// FuzzDecodeJSON feeds arbitrary bytes to the database decoder.
// Invariant: DecodeJSON either errors or returns a database that
// round-trips through EncodeJSON with identical relations. Seeds run in
// ordinary go test; use `go test -fuzz=FuzzDecodeJSON ./internal/database`
// for exploration.
func FuzzDecodeJSON(f *testing.F) {
	seeds := []string{
		`{"relations": [{"name": "R", "attrs": ["A","B"], "rows": [["1","x"]]}]}`,
		`{"relations": []}`,
		`{"relations": [{"name": "", "attrs": ["A"], "rows": []}]}`,
		`{"relations": [{"attrs": ["A","A"], "rows": [["1","2"]]}]}`,
		`not json`,
		`{"relations": [{"attrs": ["B","A"], "rows": [["x","1"],["x","1"]]}]}`,
		`{"relations": [{"attrs": ["A"], "rows": [["\u0000"]]}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, db); err != nil {
			t.Fatalf("decoded database fails to encode: %v", err)
		}
		back, err := DecodeJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if back.Len() != db.Len() {
			t.Fatalf("round trip changed relation count")
		}
		for i := 0; i < db.Len(); i++ {
			if !back.Relation(i).Equal(db.Relation(i)) {
				t.Fatalf("round trip changed relation %d", i)
			}
		}
	})
}

// FuzzLoadCSV feeds arbitrary bytes to the CSV relation loader.
// Invariant: ReadCSV either errors or returns a valid relation, never
// panics (malformed rows must surface as positioned errors), and
// loading the same bytes twice yields equal relations — the loader is
// deterministic.
func FuzzLoadCSV(f *testing.F) {
	seed, err := os.ReadFile("testdata/orders.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range []string{
		"A,B\n1,x\n",
		"A\n",
		"A,A\n1,2\n",
		"A,B\n1\n",
		"A, \n1,2\n",
		"\"A,B\nunterminated",
		"A,B\n\"q\"x,y\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSV("F", bytes.NewReader(data))
		if err != nil {
			return
		}
		if rel == nil {
			t.Fatal("nil relation without an error")
		}
		if rel.Schema().Len() == 0 {
			t.Fatal("loaded relation has an empty schema")
		}
		again, err := ReadCSV("F", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second load of accepted input failed: %v", err)
		}
		if !again.Equal(rel) {
			t.Fatal("loading the same CSV twice produced different relations")
		}
	})
}

// FuzzLoadJSON checks the single-pass JSON loader against the
// encoding/json decoder it replaced, then drives what it accepts into
// the guarded evaluation stack. The two decoders must agree on accept
// versus reject and, for accepted input, on names, schemas, row order
// and dictionary order; the only disagreement allowed is one of the
// three new rejections, which newRejection recognizes independently.
// Any database the decoder accepts must then evaluate under a resource
// guard without panicking — the only permitted failures are typed
// governance trips. This is the end-to-end check that the parallel
// prewarmer's worker panic boundary holds for arbitrary loader-accepted
// inputs.
func FuzzLoadJSON(f *testing.F) {
	seed, err := os.ReadFile("testdata/db.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range []string{
		`{"relations": [{"name": "R", "attrs": ["A","B"], "rows": [["1","x"]]}]}`,
		`{"relations": [{"attrs": ["A"], "rows": []}, {"attrs": ["A"], "rows": [["1"]]}]}`,
		`{"relations": [{"attrs": ["A","B"], "rows": [["1","x"]]}, {"attrs": ["B","C"], "rows": [["x","2"]]}]}`,
		`not json`,
		`{"Relations": [{"ROWS": [["x","1"],["y","2"]], "Name": "R", "attrs": ["B","A"], "extra": {"k": [1, -2.5e3, true, null]}}]}`,
		`{"relations": [{"name": "\u0052", "attrs": ["A"], "rows": [["\ud83d\ude00"], ["\ud800"], ["a\"b"]]}]} `,
		"{\"relations\": [{\"attrs\": [\"A\u00e9\"], \"rows\": [[\"\xff\"], [\"\xc3\xa9\"], [\"\x7f\"]]}]}",
		`{"relations": [{"name": null, "attrs": ["A"], "rows": null}]}`,
		`{"relations": [{"attrs": ["A"], "rows": [["1"]]}], "relations": [{"attrs": ["B"]}]}`,
		`{"relations": [{"attrs": ["A", null], "rows": [[null, "2"]]}]}`,
		`{"relations": [{"attrs": ["A"], "rows": [["1"]]}]} ]]] garbage`,
		`{"relations": [{"attrs": ["A"], "x": ` + strings.Repeat("[", 100000) + `}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAgainstReference(data); err != nil {
			t.Fatal(err)
		}
		db, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for i := 0; i < db.Len(); i++ {
			total += db.Relation(i).Size()
		}
		if db.Len() == 0 || db.Len() > 4 || total > 64 {
			return // keep the evaluation cheap; the loader already validated
		}
		g := guard.New(nil, guard.Limits{MaxTuples: 1 << 14, MaxStates: 1 << 10})
		if _, err := PrewarmConnectedGuarded(db, 2, g); err != nil && !guard.Tripped(err) {
			t.Fatalf("guarded prewarm of a loader-accepted database failed non-gracefully: %v", err)
		}
	})
}
