package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzServeRequest feeds arbitrary bytes to the service's request
// decoder — the untrusted-input surface of POST /v1/analyze and
// /v1/query. Invariant: DecodeRequest either errors or returns a
// well-formed (request, database) pair, never panics, and decoding the
// same bytes twice is deterministic. It also agrees with the
// encoding/json envelope decoder it replaced on accept versus reject and
// on everything decoded, except for the new envelope rejections
// newEnvelopeRejection recognizes. Seeds live in
// testdata/fuzz/FuzzServeRequest and run in ordinary go test; use
// `go test -fuzz=FuzzServeRequest ./internal/serve` for exploration.
func FuzzServeRequest(f *testing.F) {
	// Inline seeds cover the request-envelope shapes; the committed
	// corpus under testdata/fuzz adds embedded-database edge cases.
	for _, s := range []string{
		`{"tenant":"standard","database":{"relations":[{"name":"R","attrs":["A","B"],"rows":[["1","x"]]}]}}`,
		`{"database":{"relations":[{"attrs":["A"],"rows":[]}]},"execute":true,"noCache":true}`,
		`{}`,
		``,
		`not json`,
		`{"tenant":"free"}`,
		`{"database":null}`,
		`{"database":{"relations":[]}}`,
		`{"database":"relations"}`,
		`{"unknown":1,"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}}`,
		`{"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}} trailing`,
		`{"tenant":3,"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}}`,
		`{"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}}]`,
		`{"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}} }`,
		`{"tenant":"free","Tenant":"premium","database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]}}`,
		`{"PLANMODE":"estimate","Database":{"relations":[{"attrs":["A"],"rows":[["1"]]}]},"execute":null,"tenant":null}`,
		`{"database":{"relations":[{"attrs":["A"],"rows":[["1"]]}],"x":` + strings.Repeat("[", 100000) + `}}`,
		`{"x":` + strings.Repeat("[", 100000) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) <= MaxRequestBytes {
			if err := checkRequestAgainstReference(data); err != nil {
				t.Fatal(err)
			}
		}
		req, db, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if req2, db2, err2 := DecodeRequest(bytes.NewReader(data)); err2 == nil {
				t.Fatalf("rejection not deterministic: first %v, then %+v %v", err, req2, db2)
			}
			return
		}
		if req == nil || db == nil {
			t.Fatalf("accepted request returned nils: %+v %+v", req, db)
		}
		if db.Len() == 0 {
			t.Fatal("accepted request carries an empty database")
		}
		if db.All().Len() != db.Len() {
			t.Fatalf("database universe %v inconsistent with %d relations", db.All(), db.Len())
		}
		// Accepting is deterministic too: the same bytes decode to a
		// database with identical relations.
		_, again, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		if again.Len() != db.Len() {
			t.Fatal("decoding the same request twice changed the relation count")
		}
		for i := 0; i < db.Len(); i++ {
			if !again.Relation(i).Equal(db.Relation(i)) {
				t.Fatalf("decoding the same request twice changed relation %d", i)
			}
		}
	})
}

// TestFuzzCorpusCommitted guards the seed corpus the CI fuzz-smoke job
// starts from: the directory must exist and every file must decode
// without panicking right now, not just under -fuzz.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzServeRequest")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus is empty")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
			t.Errorf("%s: not a go-fuzz corpus file", e.Name())
		}
	}
}
