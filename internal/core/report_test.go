package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

func TestWriteReportExample5(t *testing.T) {
	db := paperex.Example5()
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, db, an)
	out := buf.String()
	for _, want := range []string{
		"scheme connected: true",
		"C3 violated",
		"Theorem 2",
		"((MS⋈SC)⋈(CI⋈ID))",
		"[System R, Office-by-Example]",
		"[GAMMA]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteReportNoCertificates(t *testing.T) {
	db := paperex.Example1() // unconnected: no certificates
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, db, an)
	if !strings.Contains(buf.String(), "none — no theorem guarantees") {
		t.Errorf("missing no-certificate note:\n%s", buf.String())
	}
}

func TestWriteReportEmptyLinearNoCPSubspace(t *testing.T) {
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 1"),
		relation.FromStrings("R3", "DE", "2 y"),
		relation.FromStrings("R4", "EF", "y 2"),
	)
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, db, an)
	if !strings.Contains(buf.String(), "empty subspace for this scheme") {
		t.Errorf("missing empty-subspace note:\n%s", buf.String())
	}
}

func TestEncodeAnalysisJSONShape(t *testing.T) {
	db := paperex.Example4()
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeAnalysisJSON(&buf, db, an); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Connected  bool `json:"connected"`
		Conditions []struct {
			Condition string `json:"condition"`
			Holds     bool   `json:"holds"`
			Witness   string `json:"witness,omitempty"`
		} `json:"conditions"`
		Certificates []struct{} `json:"certificates"`
		Optima       []struct {
			Space string `json:"space"`
			Tau   int    `json:"tau"`
		} `json:"optima"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !parsed.Connected {
		t.Fatal("Example 4 is connected")
	}
	if len(parsed.Conditions) != 5 {
		t.Fatalf("%d conditions reported", len(parsed.Conditions))
	}
	// C1 is violated and must carry a witness string.
	foundC1 := false
	for _, c := range parsed.Conditions {
		if c.Condition == "C1" {
			foundC1 = true
			if c.Holds || c.Witness == "" {
				t.Fatalf("C1 entry wrong: %+v", c)
			}
		}
	}
	if !foundC1 {
		t.Fatal("C1 entry missing")
	}
	// Example 4 violates C1 so no certificates; optima must include the
	// all-space at τ=11.
	if len(parsed.Certificates) != 0 {
		t.Fatal("Example 4 gets no certificates")
	}
	found := false
	for _, o := range parsed.Optima {
		if o.Space == "all" && o.Tau == 11 {
			found = true
		}
	}
	if !found {
		t.Fatalf("all-space τ=11 missing: %+v", parsed.Optima)
	}
}

func TestVerifyCertificatesDetectsTampering(t *testing.T) {
	// A tampered analysis (claiming a certificate its optima contradict)
	// must fail verification — the function's whole point.
	db := paperex.Example4()
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	an.Certificates = append(an.Certificates, Certificate{
		Theorem: Theorem2,
		Space:   0, // SpaceAll; value unused by the check
	})
	if err := VerifyCertificates(an); err == nil {
		t.Fatal("forged Theorem 2 certificate must fail on Example 4 (no-CP 12 ≠ all 11)")
	}
}

func TestCertifyTheoremSet(t *testing.T) {
	// A profile with every condition satisfied yields all three
	// certificates, each naming its space.
	p := Profile{Connected: true, ResultNonEmpty: true}
	for _, c := range []conditions.Condition{
		conditions.C1, conditions.C1Strict, conditions.C2,
		conditions.C3, conditions.C4,
	} {
		p.Reports = append(p.Reports, conditions.Report{Cond: c, Holds: true})
	}
	certs := Certify(p)
	if len(certs) != 3 {
		t.Fatalf("%d certificates, want 3", len(certs))
	}
	seen := map[Theorem]bool{}
	for _, c := range certs {
		seen[c.Theorem] = true
		if c.Guarantee == "" {
			t.Fatal("certificate must carry its guarantee text")
		}
	}
	if !seen[Theorem1] || !seen[Theorem2] || !seen[Theorem3] {
		t.Fatalf("theorems missing: %v", seen)
	}
}
