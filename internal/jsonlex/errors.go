package jsonlex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// SyntaxError is input the lexer rejects: malformed JSON, a value of the
// wrong kind, a repeated key or nesting past 10 000 levels. Offset is where
// the problem starts, in bytes from the start of the lexer's input.
type SyntaxError struct {
	Offset int64
	msg    string
}

// Error describes the problem and where it starts.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s at byte offset %d", e.msg, e.Offset)
}

func (l *Lexer) errAt(off int, format string, args ...any) error {
	return &SyntaxError{Offset: int64(off), msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) eof() error {
	return l.errAt(len(l.data), "unexpected end of JSON input")
}

// jsonError gives an encoding/json error about the value that starts
// at start the absolute offset of its cause.
func (l *Lexer) jsonError(start int, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		start += int(syn.Offset)
	}
	return l.errAt(start, "%v", err)
}

// mismatch reports the value starting at the cursor, whose first byte is
// c, where a value of kind want belongs, or a syntax error when c starts
// no value.
func (l *Lexer) mismatch(c byte, want string) error {
	var found string
	switch rest := l.data[l.pos:]; {
	case c == '"':
		found = "a string"
	case c == '{':
		found = "an object"
	case c == '[':
		found = "an array"
	case bytes.HasPrefix(rest, litTrue) || bytes.HasPrefix(rest, litFalse):
		found = "a boolean"
	case bytes.HasPrefix(rest, litNull):
		found = "null"
	case c == '-' || '0' <= c && c <= '9':
		found = "a number"
	default:
		return l.errAt(l.pos, "invalid character %s looking for beginning of value", quoteChar(c))
	}
	return l.errAt(l.pos, "found %s where %s belongs", found, want)
}

// quoteChar formats c as a quoted character literal, as encoding/json's
// messages do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}
