package database

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// CSV loading: each relation is one headered CSV file; the header row
// names the attributes, every following row is a tuple, and the relation
// takes its name from the file's base name. LoadCSVDir assembles a
// database from every *.csv in a directory — the practical path for
// feeding real data to cmd/joinopt.

// ReadCSV reads one relation from headered CSV input. The input is
// untrusted: malformed headers and ragged rows come back as errors, and
// any residual invariant panic in the relation layer is converted to an
// error rather than crashing the caller. The relation interns through
// the process-wide dictionary; LoadCSVDir gives each loaded database a
// dictionary of its own.
func ReadCSV(name string, r io.Reader) (*relation.Relation, error) {
	return readCSVIn(nil, name, r)
}

// readCSVIn is ReadCSV interning through the given dictionary (nil
// selects the shared one).
func readCSVIn(dict *relation.Dict, name string, r io.Reader) (rel *relation.Relation, err error) {
	defer wrapLoadPanic("CSV", &err)
	defer guard.Protect(&err)
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 0 // all records must match the header's width
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("database: reading CSV header for %s: %w", name, err)
	}
	attrs := make([]relation.Attr, len(header))
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			return nil, fmt.Errorf("database: %s has an empty attribute name in column %d", name, i+1)
		}
		attrs[i] = relation.Attr(h)
	}
	ld, ok := relation.NewLoader(dict, name, attrs)
	if !ok {
		return nil, fmt.Errorf("database: %s has duplicate attributes", name)
	}
	var (
		buf  []byte   // the record's fields, copied end to end
		vals [][]byte // the fields as subslices of buf
	)
	for row := 1; ; row++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err == nil {
			buf, vals = fieldBytes(record, buf, vals)
			err = ld.Add(vals)
		}
		if err != nil {
			// encoding/csv errors carry the file line; prefix the
			// relation and the 1-based data-row index so multi-file
			// loads name exactly what failed.
			return nil, fmt.Errorf("database: relation %s: CSV row %d: %w", name, row, err)
		}
	}
	return ld.Relation(), nil
}

// fieldBytes copies a record's fields end to end into buf and returns
// them as subslices of it, reusing both buffers' storage so a row costs
// no allocation once they have grown.
func fieldBytes(record []string, buf []byte, vals [][]byte) ([]byte, [][]byte) {
	buf, vals = buf[:0], vals[:0]
	for _, f := range record {
		buf = append(buf, f...)
	}
	end := 0
	for _, f := range record {
		vals = append(vals, buf[end:end+len(f)])
		end += len(f)
	}
	return buf, vals
}

// LoadCSVDir builds a database from every .csv file in dir, in
// lexicographic filename order (so relation indexes are stable).
func LoadCSVDir(dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("database: no .csv files in %s", dir)
	}
	if len(names) > hypergraph.MaxRelations {
		return nil, fmt.Errorf("database: %s holds %d .csv files, the engine supports at most %d relations",
			dir, len(names), hypergraph.MaxRelations)
	}
	sort.Strings(names)
	// One dictionary per loaded database: its relations share an ID
	// space (joins never translate) and dropping the database releases
	// every string it interned.
	dict := relation.NewDict()
	rels := make([]*relation.Relation, 0, len(names))
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		rel, err := readCSVIn(dict, strings.TrimSuffix(name, ".csv"), f)
		f.Close()
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	return New(rels...), nil
}
