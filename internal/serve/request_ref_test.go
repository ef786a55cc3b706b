package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"multijoin/internal/database"
)

// decodeRequestReference is the encoding/json envelope decoder
// decodeRequestBytes replaced, kept as the differential reference for
// FuzzServeRequest. It hands the database's raw bytes to
// database.DecodeJSON, as it always did; that decoder has its own
// encoding/json reference in its package's tests.
func decodeRequestReference(body []byte) (*Request, *database.Database, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, nil, fmt.Errorf("serve: decoding request: %w", err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("serve: trailing data after request object")
	}
	if len(req.Database) == 0 {
		return nil, nil, fmt.Errorf("serve: request has no database")
	}
	if _, err := ParsePlanMode(req.PlanMode); err != nil {
		return nil, nil, err
	}
	db, err := database.DecodeJSON(bytes.NewReader(req.Database))
	if err != nil {
		return nil, nil, err
	}
	return req, db, nil
}

// newEnvelopeRejection reports whether body, which the reference
// accepts, holds one of the envelope inputs decodeRequestBytes rejects
// on purpose: a repeated key, or bytes other than whitespace after the
// envelope. It walks the envelope with encoding/json's own tokenizer.
func newEnvelopeRejection(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.Token() // {
	seen := make(map[string]bool)
	repeated := false
	for dec.More() {
		tok, _ := dec.Token()
		key, _ := tok.(string)
		for _, f := range requestFields {
			if strings.EqualFold(key, f) {
				repeated = repeated || seen[f]
				seen[f] = true
			}
		}
		var skip json.RawMessage
		dec.Decode(&skip)
	}
	dec.Token() // }
	trailing := len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
	return repeated || trailing
}

// requestDigest renders what the decoders must agree on: the envelope's
// fields, the database's bytes, and the decoded database's names,
// schemas, rows in order and dictionary values in ID order.
func requestDigest(req *Request, db *database.Database) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%q %q %v %v %s\n", req.Tenant, req.PlanMode, req.Execute, req.NoCache, req.Database)
	if err := database.EncodeJSON(&b, db); err != nil {
		return "encode: " + err.Error()
	}
	dict := db.Relation(0).Dict()
	for id := 0; id < dict.Len(); id++ {
		fmt.Fprintf(&b, "%q ", dict.Value(uint32(id)))
	}
	return b.String()
}

// checkRequestAgainstReference decodes body with both decoders and
// reports how they differ: nil when they agree, or when
// decodeRequestBytes's rejection is one of the new envelope ones.
func checkRequestAgainstReference(body []byte) error {
	req, db, err := decodeRequestBytes(body)
	refReq, refDB, refErr := decodeRequestReference(body)
	switch {
	case err != nil && refErr == nil:
		if newEnvelopeRejection(body) {
			return nil
		}
		return fmt.Errorf("decodeRequestBytes rejects what encoding/json accepts: %v", err)
	case err == nil && refErr != nil:
		return fmt.Errorf("decodeRequestBytes accepts what encoding/json rejects: %v", refErr)
	case err != nil:
		return nil
	}
	if got, want := requestDigest(req, db), requestDigest(refReq, refDB); got != want {
		return fmt.Errorf("decoded requests differ:\n got %s\nwant %s", got, want)
	}
	return nil
}
