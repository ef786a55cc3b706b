package serve

import (
	"fmt"
	"sort"
	"time"

	"multijoin/internal/guard"
)

// TenantClass is the service contract for one class of callers: how
// long a request may run, how much of the engine it may spend, how many
// of its requests run at once, and how many may wait. Every budget here
// becomes a per-request guard.Limits; nothing in the engine below the
// server ever sees the tenant, only the guard derived from it.
type TenantClass struct {
	// Name identifies the class in requests and metrics.
	Name string
	// Deadline bounds one request's wall clock, admission wait included.
	Deadline time.Duration
	// MaxTuples bounds materialized intermediate tuples (the paper's τ)
	// per rung attempt; 0 = unlimited.
	MaxTuples int64
	// MaxStates bounds evaluator + DP states per rung attempt; 0 =
	// unlimited.
	MaxStates int64
	// MaxConcurrent is the class's concurrency slot count.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot; an arrival
	// beyond it is shed with 429.
	MaxQueue int
	// StartRung is where the degradation ladder starts for this class:
	// RungDP (the zero value) or a rung below it. Premium and standard
	// both start at the DP and differ only in their budgets; cheap
	// tenants start lower.
	StartRung Rung
}

// Limits derives the per-rung guard budgets from the class.
func (c TenantClass) Limits() guard.Limits {
	return guard.Limits{MaxTuples: c.MaxTuples, MaxStates: c.MaxStates}
}

// Validate rejects classes the admission controller cannot run.
func (c TenantClass) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("serve: tenant class with empty name")
	}
	if c.Deadline <= 0 {
		return fmt.Errorf("serve: tenant %q has no deadline", c.Name)
	}
	if c.MaxConcurrent <= 0 {
		return fmt.Errorf("serve: tenant %q has no concurrency slots", c.Name)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("serve: tenant %q has negative queue depth", c.Name)
	}
	if c.StartRung < RungDP || c.StartRung > RungEstimate {
		return fmt.Errorf("serve: tenant %q has start rung %s, want dp, yannakakis, greedy or estimate", c.Name, c.StartRung)
	}
	return nil
}

// DefaultTenants returns the built-in tenant classes — the table the
// README documents. Callers may replace or extend it via Config.
func DefaultTenants() []TenantClass {
	return []TenantClass{
		{
			Name:          "free",
			Deadline:      500 * time.Millisecond,
			MaxTuples:     20_000,
			MaxStates:     20_000,
			MaxConcurrent: 4,
			MaxQueue:      16,
			StartRung:     RungGreedy,
		},
		{
			Name:          "standard",
			Deadline:      2 * time.Second,
			MaxTuples:     200_000,
			MaxStates:     200_000,
			MaxConcurrent: 8,
			MaxQueue:      32,
			StartRung:     RungDP,
		},
		{
			Name:          "premium",
			Deadline:      10 * time.Second,
			MaxTuples:     2_000_000,
			MaxStates:     2_000_000,
			MaxConcurrent: 16,
			MaxQueue:      64,
			StartRung:     RungDP,
		},
	}
}

// tenantSet is the validated, name-indexed form of the configured
// classes.
type tenantSet struct {
	byName map[string]TenantClass
	names  []string // sorted, for deterministic listings
}

func newTenantSet(classes []TenantClass) (*tenantSet, error) {
	if len(classes) == 0 {
		classes = DefaultTenants()
	}
	ts := &tenantSet{byName: make(map[string]TenantClass, len(classes))}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := ts.byName[c.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant class %q", c.Name)
		}
		ts.byName[c.Name] = c
		ts.names = append(ts.names, c.Name)
	}
	sort.Strings(ts.names)
	return ts, nil
}

// lookup resolves a request's tenant name; empty selects "standard"
// when configured, else the alphabetically first class.
func (ts *tenantSet) lookup(name string) (TenantClass, bool) {
	if name == "" {
		if c, ok := ts.byName["standard"]; ok {
			return c, true
		}
		return ts.byName[ts.names[0]], true
	}
	c, ok := ts.byName[name]
	return c, ok
}
