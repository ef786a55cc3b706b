package core

import (
	"math/rand"
	"testing"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/optimizer"
	"multijoin/internal/paperex"
)

func hasTheorem(certs []Certificate, th Theorem) bool {
	for _, c := range certs {
		if c.Theorem == th {
			return true
		}
	}
	return false
}

func TestAnalyzeExample3(t *testing.T) {
	// C1 holds, C1′ fails: no Theorem 1 certificate — and indeed a
	// τ-optimum linear strategy uses a Cartesian product.
	an, err := AnalyzeEvaluator(database.NewEvaluator(paperex.Example3()))
	if err != nil {
		t.Fatal(err)
	}
	if !an.Profile.Holds(conditions.C1) || an.Profile.Holds(conditions.C1Strict) {
		t.Fatal("Example 3 profile wrong")
	}
	if hasTheorem(an.Certificates, Theorem1) {
		t.Fatal("Theorem 1 must not certify Example 3")
	}
	ev := database.NewEvaluator(paperex.Example3())
	if err := VerifyTheorem1Exhaustive(ev); err == nil {
		t.Fatal("Theorem 1's conclusion should fail on Example 3 (its very point)")
	}
}

func TestAnalyzeExample4(t *testing.T) {
	// C2 holds, C1 fails: no Theorem 2 certificate; conclusion fails.
	an, err := AnalyzeEvaluator(database.NewEvaluator(paperex.Example4()))
	if err != nil {
		t.Fatal(err)
	}
	if hasTheorem(an.Certificates, Theorem2) {
		t.Fatal("Theorem 2 must not certify Example 4")
	}
	ev := database.NewEvaluator(paperex.Example4())
	if err := VerifyTheorem2Exhaustive(ev); err == nil {
		t.Fatal("Theorem 2's conclusion should fail on Example 4")
	}
	// The restricted optimizer misses the optimum: the gap the paper
	// warns about.
	all, _ := an.Result(optimizer.SpaceAll)
	nocp, _ := an.Result(optimizer.SpaceNoCP)
	if !(all.Cost == 11 && nocp.Cost == 12) {
		t.Fatalf("gap wrong: all=%d nocp=%d, want 11 and 12", all.Cost, nocp.Cost)
	}
}

func TestAnalyzeExample5(t *testing.T) {
	// C1 ∧ C2 hold: Theorem 2 certifies no-CP search; C3 fails so
	// Theorem 3 does not certify, and its conclusion indeed fails.
	db := paperex.Example5()
	an, err := AnalyzeEvaluator(database.NewEvaluator(db))
	if err != nil {
		t.Fatal(err)
	}
	if !hasTheorem(an.Certificates, Theorem2) {
		t.Fatal("Theorem 2 should certify Example 5")
	}
	if hasTheorem(an.Certificates, Theorem3) {
		t.Fatal("Theorem 3 must not certify Example 5")
	}
	if err := VerifyCertificates(an); err != nil {
		t.Fatalf("certificates must hold: %v", err)
	}
	ev := database.NewEvaluator(db)
	if err := VerifyTheorem3Exhaustive(ev); err == nil {
		t.Fatal("Theorem 3's conclusion should fail on Example 5")
	}
	// Quantify the gap: linear-no-CP (System R) misses the optimum.
	all, _ := an.Result(optimizer.SpaceAll)
	lnc, _ := an.Result(optimizer.SpaceLinearNoCP)
	if lnc.Cost <= all.Cost {
		t.Fatalf("expected a linear gap: all=%d linear-no-CP=%d", all.Cost, lnc.Cost)
	}
}

func TestAnalyzeDiagonalCertifiesTheorem3(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		db := gen.Diagonal(rng, gen.Schemes(gen.Chain, 4), 8, 0.6)
		an, err := AnalyzeEvaluator(database.NewEvaluator(db))
		if err != nil {
			t.Fatal(err)
		}
		if !hasTheorem(an.Certificates, Theorem3) {
			t.Fatalf("trial %d: superkey joins must certify Theorem 3; profile %+v",
				trial, an.Profile.Reports)
		}
		if err := VerifyCertificates(an); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCertificatesAlwaysHoldOnRandomDatabases(t *testing.T) {
	// The decisive property test: whatever Certify claims must be borne
	// out by exhaustive optimization — on *any* database. Violations
	// would falsify the implementation (or the theorems).
	rng := rand.New(rand.NewSource(22))
	fired := 0
	for trial := 0; trial < 120; trial++ {
		var db *database.Database
		switch trial % 3 {
		case 0:
			db = gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 4, 3)
		case 1:
			db = gen.Diagonal(rng, gen.RandomConnectedSchemes(rng, 4, 0.3), 6, 0.5)
		default:
			db = gen.Zipf(rng, gen.Schemes(gen.Star, 4), 6, 6, 1.5)
		}
		ev := database.NewEvaluator(db)
		if ev.Result().Empty() {
			continue
		}
		an, err := AnalyzeEvaluator(database.NewEvaluator(db))
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Certificates) > 0 {
			fired++
		}
		if err := VerifyCertificates(an); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, db)
		}
		// Exhaustive forms of the theorems, where certified.
		for _, c := range an.Certificates {
			var verr error
			switch c.Theorem {
			case Theorem1:
				verr = VerifyTheorem1Exhaustive(ev)
			case Theorem2:
				verr = VerifyTheorem2Exhaustive(ev)
			case Theorem3:
				verr = VerifyTheorem3Exhaustive(ev)
			}
			if verr != nil {
				t.Fatalf("trial %d: %v\n%v", trial, verr, db)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no certificate ever fired; generators too weak")
	}
}

func TestCertifyRequiresConnectedAndNonEmpty(t *testing.T) {
	p := Profile{Connected: false, ResultNonEmpty: true,
		Reports: []conditions.Report{{Cond: conditions.C3, Holds: true}}}
	if len(Certify(p)) != 0 {
		t.Fatal("unconnected schemes get no certificates")
	}
	p = Profile{Connected: true, ResultNonEmpty: false,
		Reports: []conditions.Report{{Cond: conditions.C3, Holds: true}}}
	if len(Certify(p)) != 0 {
		t.Fatal("empty results get no certificates")
	}
}

func TestAnalyzeRejectsInvalidDatabase(t *testing.T) {
	if _, err := AnalyzeEvaluator(database.NewEvaluator(database.New())); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestAnalysisResultLookup(t *testing.T) {
	an, err := AnalyzeEvaluator(database.NewEvaluator(paperex.Example1()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := an.Result(optimizer.SpaceAll); !ok {
		t.Fatal("SpaceAll result missing")
	}
	if _, ok := an.Result(optimizer.Space(9)); ok {
		t.Fatal("unknown space should not resolve")
	}
	// Example 1 is unconnected with one multi-relation component, so the
	// linear-no-CP space is nonempty and must be reported.
	if _, ok := an.Result(optimizer.SpaceLinearNoCP); !ok {
		t.Fatal("linear-no-CP result missing")
	}
}

func TestProfileHoldsUnknownCondition(t *testing.T) {
	p := Profile{}
	if p.Holds(conditions.C1) {
		t.Fatal("empty profile holds nothing")
	}
}
