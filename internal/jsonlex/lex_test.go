package jsonlex

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

var syntaxSeeds = []string{
	`{"a": [1, -0.5e+3, true, false, null, "xé\n", {}, []], "b": {"c": {}}}`,
	`[01]`, `[1.]`, `[1e]`, `[-]`, `[.5]`, `[1,]`, `{"a" 1}`, `{"a": 1,}`, `{1: 2}`,
	`"\x"`, `"\u12"`, `"` + "\x01" + `"`, "\"\xff\"", `"\ud800"`, `tru`, `nul`, `[}`, `{]`,
	` [ ] `, `"a" "b"`, ``, `   `, `[` + strings.Repeat("[", maxDepth) + `]`,
	strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
	strings.Repeat(`{"k":`, 20) + `0` + strings.Repeat("}", 20),
	`{"a":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"a":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// FuzzSkip checks the lexer's syntax check against encoding/json's:
// Skip followed by End accepts exactly the documents json.Valid
// accepts, nesting limit included.
func FuzzSkip(f *testing.F) {
	for _, s := range syntaxSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(data)
		err := l.Skip()
		if err == nil {
			err = l.End()
		}
		if valid := json.Valid(data); (err == nil) != valid {
			t.Fatalf("Skip+End error %v, json.Valid %v, on %q", err, valid, data)
		}
	})
}

// FuzzString checks String against encoding/json decoding the same
// token into a string: the same acceptance and the same value. The one
// difference is null, which encoding/json leaves as "" and String
// rejects; decoders that take null as absent check for it first.
func FuzzString(f *testing.F) {
	for _, s := range append(syntaxSeeds, `null`, `"plain"`, `"esc\"aped\\"`, `"😀"`, "\"caf\xc3\xa9\"", `"\/\b\f\r\t"`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(data)
		got, err := l.String()
		if err == nil {
			err = l.End()
		}
		var want string
		wantErr := json.Unmarshal(data, &want)
		if wantErr == nil && bytes.Equal(bytes.Trim(data, " \t\r\n"), []byte("null")) {
			wantErr = errors.New("null is not a string")
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("String error %v, encoding/json error %v, on %q", err, wantErr, data)
		}
		if err == nil && string(got) != want {
			t.Fatalf("String = %q, encoding/json %q, on %q", got, want, data)
		}
	})
}

func TestFieldMatchesLikeEncodingJSON(t *testing.T) {
	fields := []string{"name", "Name", "noCache"}
	for key, want := range map[string]int{
		"name": 0, "Name": 1, "NAME": 0, "nocache": 2, "NOCACHE": 2, "noCache": 2,
		"nam": -1, "names": -1, "": -1, "ſ": -1, "noCacheſ": -1,
	} {
		if got := matchField([]byte(key), fields); got != want {
			t.Errorf("matchField(%q) = %d, want %d", key, got, want)
		}
	}
	// U+017F folds to s, so it selects a field spelled with one.
	if got := matchField([]byte("ſtatus"), []string{"status"}); got != 0 {
		t.Errorf("matchField(ſtatus) = %d, want 0", got)
	}
}

func TestObjectRejectsRepeatedField(t *testing.T) {
	for src, ok := range map[string]bool{
		`{"a": 1, "b": 2}`:            true,
		`{"x": 1, "x": 2}`:            true, // unknown keys are not tracked
		`{"a": 1, "a": 2}`:            false,
		`{"a": 1, "A": 2}`:            false,
		`{"b": null, "a": 1, "B": 3}`: false,
	} {
		l := New([]byte(src))
		err := l.Object([]string{"a", "b"}, func(int, []byte) error { return l.Skip() })
		if (err == nil) != ok {
			t.Errorf("Object(%s) error %v, want ok=%v", src, err, ok)
		}
	}
}

// TestSkipCountsDepthFromRoot skips a value inside an object: the
// nesting limit counts the object too, as encoding/json counts it.
func TestSkipCountsDepthFromRoot(t *testing.T) {
	for inner, ok := range map[int]bool{maxDepth - 1: true, maxDepth: false} {
		src := `{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}`
		l := New([]byte(src))
		err := l.Object(nil, func(int, []byte) error { return l.Skip() })
		if (err == nil) != ok || json.Valid([]byte(src)) != ok {
			t.Errorf("%d levels inside an object: error %v, want ok=%v", inner, err, ok)
		}
	}
}
