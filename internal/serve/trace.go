package serve

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"

	"multijoin/internal/obs"
)

// Request-scoped tracing. Every API request runs against its own
// obs.Recorder carrying a span tree rooted at "request": admission,
// the ladder rungs, and each rung's optimize/execute phases appear as
// child spans whose τ/state attribution comes from guard-ledger diffs
// at the span boundaries. The root span covers the whole handler except
// what needs the closed tree (the trace section, the flight-recorder
// entry) and writing the response. The response body carries the
// completed tree as its last field, the Trace-Id header names it, and
// an incoming W3C traceparent header is honored so the service joins a
// caller's existing trace. The request recorder is folded into the
// server's root recorder in the epilogue, inside the root span, so
// process-level totals still reconcile.

// TraceInfo is the trace section of a successful response: the request's
// completed span tree and its identity.
type TraceInfo struct {
	// TraceID is the request's 32-hex-digit trace identifier — taken
	// from the caller's traceparent header when present, generated
	// otherwise.
	TraceID string `json:"traceId"`
	// DroppedSpans counts spans discarded past the per-request cap.
	DroppedSpans int64 `json:"droppedSpans,omitempty"`
	// Spans is the completed span tree in start order.
	Spans []obs.SpanRecord `json:"spans"`
}

// requestTrace is one request's tracing state: a fresh recorder, the
// open root span, and the wire identity for the trace headers.
type requestTrace struct {
	rec      *obs.Recorder
	root     *obs.Span
	traceID  string
	spanID   string
	endpoint string
	// class is the resolved tenant class, "" until the request decodes.
	class string
}

// startRequestTrace opens the per-request recorder and, at once, the
// root span, so the span covers the rest of the handler; then it adopts
// the caller's trace ID from a valid traceparent header or mints a
// fresh one.
func (s *Server) startRequestTrace(r *http.Request) *requestTrace {
	rec := obs.NewRecorder()
	rt := &requestTrace{rec: rec, root: rec.StartSpan(obs.SpanRequest), endpoint: r.URL.Path}
	rt.root.SetAttr("endpoint", rt.endpoint)
	if tid, ok := parseTraceparent(r.Header.Get("Traceparent")); ok {
		rt.traceID = tid
	} else {
		rt.traceID = randHex(16)
	}
	rt.spanID = randHex(8)
	return rt
}

// traceparentHeader renders the outgoing W3C traceparent value: this
// request's trace with the root span as the parent, sampled.
func (rt *requestTrace) traceparentHeader() string {
	return "00-" + rt.traceID + "-" + rt.spanID + "-01"
}

// parseTraceparent extracts the trace ID from a W3C traceparent header
// (version 00: `00-<32 hex>-<16 hex>-<2 hex>`). Malformed, all-zero, or
// unknown-version values are ignored — a bad header never fails the
// request, the service just starts a fresh trace.
func parseTraceparent(h string) (traceID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return "", false
	}
	if !isLowerHex(parts[1], 32) || !isLowerHex(parts[2], 16) || !isLowerHex(parts[3], 2) {
		return "", false
	}
	if allZero(parts[1]) || allZero(parts[2]) {
		return "", false
	}
	return parts[1], true
}

// isLowerHex reports whether s is exactly n lowercase hex digits.
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// allZero reports whether s is entirely '0' digits.
func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// randHex returns 2n random lowercase hex digits from the system CSPRNG.
func randHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// The CSPRNG is effectively infallible; if it ever is not, an
		// all-ones ID is still a valid (if colliding) trace identity.
		for i := range buf {
			buf[i] = 0xff
		}
	}
	return hex.EncodeToString(buf)
}
