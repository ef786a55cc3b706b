package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"multijoin/internal/database"
	"multijoin/internal/exitcode"
	"multijoin/internal/guard"
	"multijoin/internal/jsonlex"
)

// The wire format. Requests and responses are plain JSON; the decoder
// is strict (unknown fields rejected, body size bounded) because it is
// the service's untrusted-input surface — FuzzServeRequest fuzzes
// exactly DecodeRequest, and the contract it checks is "error or valid
// request, never a panic, never an unbounded allocation".
//
// The envelope's keys match case-insensitively, as encoding/json
// matches struct fields, and may come in any order. A null for tenant,
// planMode, execute or noCache means the field is absent. A repeated
// key, an unknown key and anything but whitespace after the envelope
// are malformed input; the embedded database follows the interchange
// format's own rules (database/json.go).

// MaxRequestBytes bounds a request body. Databases past this limit
// belong in a file workload, not a service call.
const MaxRequestBytes = 8 << 20

// Request is the body of POST /v1/analyze and POST /v1/query.
type Request struct {
	// Tenant selects the tenant class; empty means "standard".
	Tenant string `json:"tenant,omitempty"`
	// Database is the database in the interchange format
	// ({"relations":[{"name","attrs","rows"}]}). DecodeRequest sets it
	// to the value's bytes within the request body, not a copy.
	Database json.RawMessage `json:"database"`
	// Execute asks /v1/query to also materialize the chosen plan's
	// joins (charging the tenant's tuple budget) and report the final
	// result size. Ignored by /v1/analyze, which always executes.
	Execute bool `json:"execute,omitempty"`
	// NoCache bypasses the plan cache for this request (both lookup and
	// fill) — the knob the chaos suite uses to force planning work.
	NoCache bool `json:"noCache,omitempty"`
	// PlanMode selects how /v1/query plans: "exact" (default) obtains
	// exact τ through the evaluator; "estimate" and "histogram" plan
	// from statistics without executing joins, then execute only the
	// chosen plan when Execute is set. Ignored by /v1/analyze, whose
	// contract is the exact four-space analysis.
	PlanMode string `json:"planMode,omitempty"`
}

// DecodeRequest strictly parses a request body and its embedded
// database. Every failure is an *exitcode.InputError — malformed input
// is the caller's fault (HTTP 400, exit code 3), never an internal
// error. The body's length is not known in advance, so it is read into
// a buffer grown as it fills.
func DecodeRequest(r io.Reader) (*Request, *database.Database, error) {
	return decodeRequest(r, -1)
}

// decodeRequest is DecodeRequest for a body of declared length
// (negative: unknown). The declaration only sizes the read buffer: a
// longer body is still read to its end, up to MaxRequestBytes+1 bytes.
func decodeRequest(r io.Reader, length int64) (*Request, *database.Database, error) {
	body, err := readBody(io.LimitReader(r, MaxRequestBytes+1), length)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reading request body: %w", err)
	}
	if len(body) > MaxRequestBytes {
		return nil, nil, exitcode.Input(fmt.Errorf("serve: request body exceeds %d bytes", MaxRequestBytes))
	}
	req, db, err := decodeRequestBytes(body)
	if err != nil {
		return nil, nil, exitcode.Input(err)
	}
	return req, db, nil
}

// readBody reads r to its end. A declared length within MaxRequestBytes
// sizes one buffer, plus the bytes.MinRead of room ReadFrom needs to
// see EOF without growing it.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length < 0 || length > MaxRequestBytes {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, length+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// requestFields lists Request's JSON keys, in the order decodeRequestBytes
// switches on them.
var requestFields = []string{"tenant", "database", "execute", "noCache", "planMode"}

// decodeRequestBytes is the fuzzed core: bytes in, request+database or
// error out. One pass over the body reads the envelope and, through
// database.ReadJSON, the database inside it; Request.Database is the
// database value's subslice of body.
func decodeRequestBytes(body []byte) (req *Request, db *database.Database, err error) {
	defer guard.Protect(&err)
	l := jsonlex.New(body)
	req = &Request{}
	err = l.Object(requestFields, func(field int, key []byte) error {
		var err error
		switch field {
		case 0:
			req.Tenant, err = optString(l)
		case 1:
			start := l.Start()
			db, err = database.ReadJSON(l)
			req.Database = body[start:l.Pos()]
		case 2:
			req.Execute, err = l.Bool()
		case 3:
			req.NoCache, err = l.Bool()
		case 4:
			req.PlanMode, err = optString(l)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		return err
	})
	if err == nil {
		err = l.End()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: decoding request: %w", err)
	}
	if db == nil {
		return nil, nil, fmt.Errorf("serve: request has no database")
	}
	if _, err := ParsePlanMode(req.PlanMode); err != nil {
		return nil, nil, err
	}
	return req, db, nil
}

// optString reads a string field; null reads as "", an absent field.
func optString(l *jsonlex.Lexer) (string, error) {
	if l.Null() {
		return "", nil
	}
	s, err := l.String()
	return string(s), err
}

// TripInfo reports one rung the ladder fell past on the way to the
// answering rung.
type TripInfo struct {
	// Rung is the rung that tripped.
	Rung string `json:"rung"`
	// Error is the typed governance error that tripped it.
	Error string `json:"error"`
}

// PlanInfo is the plan section of a response.
type PlanInfo struct {
	// Expr is the join tree over relation indexes, e.g. "((0 1) 2)".
	Expr string `json:"expr"`
	// Strategy is the same tree rendered with relation names.
	Strategy string `json:"strategy"`
	// Cost is τ of the plan — measured whenever the plan executed
	// (including executed estimate-mode plans), otherwise the model's
	// estimate rounded to an integer.
	Cost int64 `json:"cost"`
	// Estimated marks plans chosen by the statistics model rather than
	// exact τ, whatever their Cost was measured as afterwards.
	Estimated bool `json:"estimated"`
}

// Response is the body of a successful /v1/analyze or /v1/query call.
type Response struct {
	// Tenant is the resolved tenant class.
	Tenant string `json:"tenant"`
	// Rung names the ladder rung that produced the answer.
	Rung string `json:"rung"`
	// Degraded is true when Rung is below the class's start rung.
	Degraded bool `json:"degraded"`
	// Trips lists the rungs that tripped before Rung answered.
	Trips []TripInfo `json:"trips,omitempty"`
	// Plan is the chosen strategy.
	Plan PlanInfo `json:"plan"`
	// CacheHit marks answers served from the plan cache.
	CacheHit bool `json:"cacheHit"`
	// Fingerprint is the database's statistics digest (core.Fingerprint:
	// shape, cardinalities, distinct counts). It is not the plan-cache
	// key, which digests the database's bytes.
	Fingerprint string `json:"fingerprint"`
	// ResultSize is the final join's cardinality; present only when the
	// request executed (analyze mode, or query mode with execute).
	ResultSize *int `json:"resultSize,omitempty"`
	// Analysis is the full four-space analysis (analyze mode only), in
	// the same shape as the CLI's -format json.
	Analysis json.RawMessage `json:"analysis,omitempty"`
	// Guard is the final rung's budget ledger.
	Guard guard.Snapshot `json:"guard"`
	// Trace is the request's span tree; present on every API answer,
	// absent only for direct library callers that bypass the handler.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// ErrorInfo is the body of every non-2xx response.
type ErrorInfo struct {
	// Error describes what failed.
	Error string `json:"error"`
	// Kind classifies it: "bad_request", "shed", "draining", "deadline"
	// or "internal".
	Kind string `json:"kind"`
	// RetryAfterSeconds echoes the Retry-After header on shed and
	// draining responses.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
	// Trips lists the rungs attempted before the request died (deadline
	// responses only).
	Trips []TripInfo `json:"trips,omitempty"`
}
