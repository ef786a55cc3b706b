// Package jsonlex is the single-pass JSON lexer behind the interchange
// format's decoders: database.DecodeJSON and the joinserve request
// envelope. It reads straight from the input bytes, with no reflection
// and no intermediate tree. A string without escapes comes back as a
// subslice of the input, so a decoder can intern row values without
// copying them first.
//
// Where the lexer and encoding/json could disagree, it follows
// encoding/json: keys select fields exactly first, then
// case-insensitively; a string holding an escape or invalid UTF-8, and
// a skipped value, go to encoding/json itself; whitespace is the same
// four bytes; nesting stops at the same depth. It is stricter in two
// ways the decoders rely on: Object rejects a second key for a field it
// has seen, and End rejects any byte but whitespace after the
// document's value.
package jsonlex

//joinlint:hotpath

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"
)

// maxDepth is the deepest nesting of arrays and objects a document may
// have: encoding/json's limit.
const maxDepth = 10000

var (
	litTrue  = []byte("true")
	litFalse = []byte("false")
	litNull  = []byte("null")
)

// Lexer reads one JSON document from a byte slice, front to back.
type Lexer struct {
	data  []byte
	pos   int // offset of the next unread byte
	depth int // arrays and objects open around the cursor
}

// New returns a lexer at the start of data. Strings it returns may
// alias data, so the caller must not modify data while it uses them.
func New(data []byte) *Lexer { return &Lexer{data: data} }

// Start skips whitespace and returns the offset where the next value
// begins.
func (l *Lexer) Start() int {
	l.peek()
	return l.pos
}

// Pos returns the offset of the next unread byte: just past the last
// value read.
func (l *Lexer) Pos() int { return l.pos }

// Seek moves the cursor to off, an offset Start returned earlier, so a
// decoder can come back to a value it skipped. The nesting depth is
// left as it is.
func (l *Lexer) Seek(off int) { l.pos = off }

// End reports an error unless only whitespace follows the cursor: the
// document held one value and nothing after it.
func (l *Lexer) End() error {
	if c, ok := l.peek(); ok {
		return l.errAt(l.pos, "invalid character %s after top-level value", quoteChar(c))
	}
	return nil
}

// peek skips whitespace and returns the next byte; ok is false at the
// end of the input.
func (l *Lexer) peek() (c byte, ok bool) {
	for ; l.pos < len(l.data); l.pos++ {
		switch c = l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, true
		}
	}
	return 0, false
}

// Null consumes a null literal if one comes next and reports whether
// it did. Decoders call it where null means an absent field.
func (l *Lexer) Null() bool {
	if l.peek(); bytes.HasPrefix(l.data[l.pos:], litNull) {
		l.pos += len(litNull)
		return true
	}
	return false
}

// String reads a string. One without escapes and in valid UTF-8 comes
// back as a subslice of the input. Any other is decoded by
// encoding/json, so escapes, surrogate pairs, the U+FFFD replacement of
// invalid bytes and every error come out exactly as encoding/json has
// them. Any value but a string, null included, is an error.
func (l *Lexer) String() ([]byte, error) {
	c, ok := l.peek()
	if !ok {
		return nil, l.eof()
	}
	if c != '"' {
		return nil, l.mismatch(c, "a string")
	}
	start := l.pos + 1
	ascii := true
	for i := start; i < len(l.data); i++ {
		switch b := l.data[i]; {
		case b == '"':
			if ascii || utf8.Valid(l.data[start:i]) {
				l.pos = i + 1
				return l.data[start:i], nil
			}
			return l.decodeString()
		case b == '\\' || b < ' ':
			return l.decodeString()
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return l.decodeString()
}

// decodeString decodes the string token at the cursor with
// encoding/json.
func (l *Lexer) decodeString() ([]byte, error) {
	start, end := l.pos, l.stringEnd(l.pos)
	var s string
	if err := json.Unmarshal(l.data[start:end], &s); err != nil {
		return nil, l.jsonError(start, err)
	}
	l.pos = end
	return []byte(s), nil
}

// stringEnd returns the offset just past the string token that starts
// at i, or the input's length when the token is not closed.
func (l *Lexer) stringEnd(i int) int {
	for i++; i < len(l.data); i++ {
		switch l.data[i] {
		case '\\':
			i++ // the escaped byte cannot end the token
		case '"':
			return i + 1
		}
	}
	return len(l.data)
}

// Bool reads true or false. Null reads as false: an absent field.
func (l *Lexer) Bool() (bool, error) {
	if l.Null() {
		return false, nil
	}
	c, ok := l.peek()
	switch {
	case !ok:
		return false, l.eof()
	case bytes.HasPrefix(l.data[l.pos:], litTrue):
		l.pos += len(litTrue)
		return true, nil
	case bytes.HasPrefix(l.data[l.pos:], litFalse):
		l.pos += len(litFalse)
		return false, nil
	}
	return false, l.mismatch(c, "a boolean")
}

// Object reads an object whose keys select among fields the way
// encoding/json selects struct fields (matchField). member is called
// once per key, with the cursor on the key's value, which it must
// consume. It gets the field's index in fields, or −1 for a key that
// selects none. A second key selecting a field already seen is an
// error, where encoding/json would merge the two values. Any value but
// an object, null included, is an error. fields may hold at most 64
// names.
func (l *Lexer) Object(fields []string, member func(field int, key []byte) error) error {
	if empty, err := l.enter('{', '}', "an object"); empty || err != nil {
		return err
	}
	var seen uint64
	for {
		at := l.Start()
		key, err := l.key()
		if err != nil {
			return err
		}
		f := matchField(key, fields)
		if f >= 0 {
			if seen&(1<<f) != 0 {
				return l.errAt(at, "repeated key %q", key)
			}
			seen |= 1 << f
		}
		if err := member(f, key); err != nil {
			return err
		}
		if done, err := l.next('}', "object key:value pair"); done || err != nil {
			return err
		}
	}
}

// Array reads an array, calling elem with the cursor on each element,
// which it must consume. Any value but an array, null included, is an
// error.
func (l *Lexer) Array(elem func() error) error {
	if empty, err := l.enter('[', ']', "an array"); empty || err != nil {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := l.next(']', "array element"); done || err != nil {
			return err
		}
	}
}

// Strings reads an array of strings, appending each element to dst as
// String returns it. A null element is an error, as is any other value
// but a string.
func (l *Lexer) Strings(dst [][]byte) ([][]byte, error) {
	err := l.Array(func() error {
		s, err := l.String()
		dst = append(dst, s)
		return err
	})
	return dst, err
}

// Skip reads one value of any kind and discards it. A loop finds where
// the value ends by counting brackets outside strings, so no input can
// exhaust the goroutine stack, and stops at encoding/json's nesting
// limit, counted from the document's root; encoding/json then checks the
// value's syntax.
func (l *Lexer) Skip() error {
	start := l.Start()
	end, depth := start, 0
scan:
	for end < len(l.data) {
		switch l.data[end] {
		case '"':
			end = l.stringEnd(end)
		case '[', '{':
			if depth++; l.depth+depth > maxDepth {
				return l.errAt(end, "exceeded max depth")
			}
			end++
		case ']', '}':
			if depth == 0 {
				break scan // the end of a scalar
			}
			depth--
			end++
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				break scan
			}
			end++
		default:
			end++
		}
		if c := l.data[end-1]; depth == 0 && (c == '"' || c == ']' || c == '}') {
			break // a string or a container just closed
		}
	}
	if end == start {
		if c, ok := l.peek(); ok {
			return l.mismatch(c, "a value")
		}
		return l.eof()
	}
	if !json.Valid(l.data[start:end]) {
		var raw json.RawMessage
		return l.jsonError(start, json.Unmarshal(l.data[start:end], &raw))
	}
	l.pos = end
	return nil
}

// key reads an object key and the colon after it.
func (l *Lexer) key() ([]byte, error) {
	c, ok := l.peek()
	if !ok {
		return nil, l.eof()
	}
	if c != '"' {
		return nil, l.errAt(l.pos, "invalid character %s looking for beginning of object key string", quoteChar(c))
	}
	key, err := l.String()
	if err != nil {
		return nil, err
	}
	c, ok = l.peek()
	if !ok {
		return nil, l.eof()
	}
	if c != ':' {
		return nil, l.errAt(l.pos, "invalid character %s after object key", quoteChar(c))
	}
	l.pos++
	return key, nil
}

// enter consumes the opening byte of an object or array, as want names
// it; empty reports that the closing byte followed at once, and was
// consumed too.
func (l *Lexer) enter(open, closer byte, want string) (empty bool, err error) {
	c, ok := l.peek()
	if !ok {
		return false, l.eof()
	}
	if c != open {
		return false, l.mismatch(c, want)
	}
	l.pos++
	if l.depth++; l.depth > maxDepth {
		return false, l.errAt(l.pos-1, "exceeded max depth")
	}
	if c, ok := l.peek(); ok && c == closer {
		l.close()
		return true, nil
	}
	return false, nil
}

// next moves past the separator after a container's element: done is
// true, with the container closed, at closer, and false after a comma.
func (l *Lexer) next(closer byte, after string) (done bool, err error) {
	c, ok := l.peek()
	switch {
	case !ok:
		return false, l.eof()
	case c == ',':
		l.pos++
		return false, nil
	case c == closer:
		l.close()
		return true, nil
	}
	return false, l.errAt(l.pos, "invalid character %s after %s", quoteChar(c), after)
}

func (l *Lexer) close() {
	l.pos++
	l.depth--
}

// matchField returns the index in fields of the field key selects, as
// encoding/json matches a key to a struct field: an exact match first,
// then a case-insensitive one by bytes.EqualFold. It returns −1 when no
// field matches.
func matchField(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}
