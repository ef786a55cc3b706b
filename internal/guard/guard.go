// Package guard is the resource-governance layer of the reproduction:
// it bounds the engine's exponential evaluation machinery so that a
// slightly-too-large input aborts cleanly instead of becoming an
// unbounded memory and CPU sink.
//
// The paper's cost measure τ is exactly the size of intermediate
// results, and the memoizing Evaluator materializes up to 2^n subset
// states, so the natural budgets are
//
//   - tuples: total intermediate tuples materialized (Σ τ per join),
//   - states: distinct materialized subsets plus DP states examined,
//   - steps:  join steps executed (one per materialization).
//
// A Guard carries those budgets together with a context.Context whose
// deadline or cancellation is polled from the evaluation hot loops.
// Exceeding a budget surfaces as a *BudgetError (errors.Is-matchable
// against ErrBudgetExceeded); cancellation surfaces as a *CancelError
// wrapping the context's error. Both carry the phase label current when
// the limit tripped, so reports can name exactly what was cut.
//
// Code outside this package charges a Guard only through a Ledger,
// which adds every charge to one family of obs counters before it
// charges the guard, so the metrics and the guard's spend reconcile by
// construction.
//
// All methods are safe on a nil *Guard (they become no-ops), so
// ungoverned call paths keep working unchanged, and safe for concurrent
// use, so joinserve's admission can read the Snapshot of a guard whose
// request is still charging it on another goroutine.
//
// The package also provides the panic machinery the engine uses to
// abort out of deep recursion and enumeration callbacks without
// threading errors through every signature: Abort panics with a
// distinguished value, Trap recovers exactly that value at the library
// edges, and Protect additionally converts any other panic (an internal
// invariant violation, malformed input reaching a relation panic) into
// a *PanicError instead of crashing the process.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"multijoin/internal/obs"
)

// ErrBudgetExceeded is the sentinel matched by errors.Is for every
// budget trip, whatever the resource.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// ErrFaultInjected is the default error produced by deterministic fault
// injection (Limits.FaultStep).
var ErrFaultInjected = errors.New("guard: injected fault")

// Limits configures a Guard's budgets. Zero values mean "unlimited".
type Limits struct {
	// MaxTuples bounds the total number of intermediate tuples
	// materialized (the running sum of τ over executed joins).
	MaxTuples int64
	// MaxStates bounds the number of distinct states examined:
	// materialized evaluator subsets plus optimizer DP states.
	MaxStates int64
	// MaxSteps bounds the number of join steps executed.
	MaxSteps int64
	// FaultStep, when positive, deterministically fails every join step
	// numbered FaultStep or later with FaultErr — the hook that makes
	// the abort paths themselves testable (e.g. failing evaluation at
	// exactly the k-th join).
	FaultStep int64
	// FaultErr overrides the error injected at FaultStep; nil selects
	// ErrFaultInjected.
	FaultErr error
}

// BudgetError is the typed error for an exceeded budget.
type BudgetError struct {
	Resource string // "tuples", "states" or "steps"
	Spent    int64
	Limit    int64
	Phase    string
}

// Error describes the exceeded budget, its spend and its phase.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("guard: %s budget exceeded in phase %q: spent %d, limit %d",
		e.Resource, e.Phase, e.Spent, e.Limit)
}

// Is matches BudgetErrors against the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// CancelError is the typed error for evaluation cut short by the
// guard's context (deadline or explicit cancellation).
type CancelError struct {
	Phase string
	Cause error
}

// Error describes the cancellation and the phase it interrupted.
func (e *CancelError) Error() string {
	return fmt.Sprintf("guard: evaluation cancelled in phase %q: %v", e.Phase, e.Cause)
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, context.Canceled) work.
func (e *CancelError) Unwrap() error { return e.Cause }

// Tripped reports whether err is a resource-governance abort: a budget
// trip, a context cancellation, or an injected fault. Callers use it to
// pick the graceful-degradation path rather than treating the error as
// a hard failure.
func Tripped(err error) bool {
	if err == nil {
		return false
	}
	var ce *CancelError
	return errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrFaultInjected) ||
		errors.As(err, &ce) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// ctxPollInterval is how many Tick calls elapse between context polls;
// ticks happen on every memoized size lookup, so polling each one would
// dominate the enumeration hot loops.
const ctxPollInterval = 64

// Guard carries a context plus resource budgets through the engine's
// hot loops. The zero value and the nil pointer are both valid,
// unlimited, context-free guards.
type Guard struct {
	ctx context.Context
	lim Limits

	mu     sync.Mutex
	tuples int64
	states int64
	steps  int64
	ticks  int64
	phase  string
}

// New creates a Guard over ctx with the given limits. A nil ctx means
// context.Background().
func New(ctx context.Context, lim Limits) *Guard {
	if ctx == nil {
		//lint:ignore ctxflow the documented nil-ctx API default: New is where callers hand a context in, so there is no caller context to detach from
		ctx = context.Background()
	}
	return &Guard{ctx: ctx, lim: lim}
}

// Context returns the guard's context (context.Background for nil or
// context-free guards).
func (g *Guard) Context() context.Context {
	if g == nil || g.ctx == nil {
		//lint:ignore ctxflow the zero/nil Guard is documented as context-free; Background is its defined context, not a detached root
		return context.Background()
	}
	return g.ctx
}

// SetPhase labels the work that follows; the label is embedded in any
// subsequent governance error so reports can name what was cut.
func (g *Guard) SetPhase(phase string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.phase = phase
	g.mu.Unlock()
}

// Phase returns the current phase label.
func (g *Guard) Phase() string {
	if g == nil {
		return ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.phase
}

// Spent reports the resources consumed so far: tuples materialized,
// states examined, join steps executed.
func (g *Guard) Spent() (tuples, states, steps int64) {
	if g == nil {
		return 0, 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tuples, g.states, g.steps
}

// Usage pairs a resource's spend with its configured limit (0 =
// unlimited).
type Usage struct {
	// Spent is the amount consumed so far.
	Spent int64 `json:"spent"`
	// Limit is the configured budget; 0 means unlimited.
	Limit int64 `json:"limit"`
}

// Snapshot is an atomic copy of a guard's ledger: the phase label,
// every spent/limit pair, and the context deadline, all read under one
// lock acquisition. Use it instead of separate Spent()+Phase() calls
// when another goroutine may still be charging — the pair can tear
// (spend from one phase, label from the next), the snapshot cannot.
type Snapshot struct {
	// Phase is the phase label current when the snapshot was taken.
	Phase string `json:"phase"`
	// HasDeadline reports whether the guard's context carries a
	// deadline; when false, Deadline is the zero time.
	HasDeadline bool `json:"hasDeadline"`
	// Deadline is the wall-clock instant the guard's context expires.
	// Consumers compute time remaining against their own clock via
	// Remaining — the snapshot itself never reads the clock, so taking
	// one stays deterministic.
	Deadline time.Time `json:"deadline"`
	// Tuples is the intermediate-tuple ledger (the running τ sum).
	Tuples Usage `json:"tuples"`
	// States is the evaluator-subset + DP-state ledger.
	States Usage `json:"states"`
	// Steps is the join-step ledger.
	Steps Usage `json:"steps"`
}

// Remaining reports the time left until the snapshot's deadline as of
// now, and whether a deadline exists at all. A negative duration means
// the deadline already passed. The serving layer uses this to compute
// Retry-After hints from the deadlines of in-flight requests.
func (s Snapshot) Remaining(now time.Time) (time.Duration, bool) {
	if !s.HasDeadline {
		return 0, false
	}
	return s.Deadline.Sub(now), true
}

// Snapshot returns an atomic copy of the guard's phase, spend/limit
// ledger and deadline. The nil guard snapshots as all zeros.
func (g *Guard) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := Snapshot{
		Phase:  g.phase,
		Tuples: Usage{Spent: g.tuples, Limit: g.lim.MaxTuples},
		States: Usage{Spent: g.states, Limit: g.lim.MaxStates},
		Steps:  Usage{Spent: g.steps, Limit: g.lim.MaxSteps},
	}
	if g.ctx != nil {
		// The context is immutable after New, so reading its deadline
		// under g.mu keeps the whole snapshot tear-free even while
		// another goroutine trips budgets concurrently.
		snap.Deadline, snap.HasDeadline = g.ctx.Deadline()
	}
	return snap
}

// cancelErrLocked wraps the context error; g.mu must be held.
func (g *Guard) cancelErrLocked(cause error) error {
	return &CancelError{Phase: g.phase, Cause: cause}
}

// Err performs a non-blocking cancellation check, returning a
// *CancelError when the guard's context is done.
func (g *Guard) Err() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	if cause := g.ctx.Err(); cause != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.cancelErrLocked(cause)
	}
	return nil
}

// Tick is the cheap per-operation check for enumeration and memo-hit
// hot loops: it polls the context every ctxPollInterval calls. It
// charges no budget.
func (g *Guard) Tick() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	g.mu.Lock()
	g.ticks++
	poll := g.ticks%ctxPollInterval == 0
	g.mu.Unlock()
	if poll {
		return g.Err()
	}
	return nil
}

// chargeEval charges one join step materializing resultTuples
// intermediate tuples plus one evaluator state, checking the fault
// hook, the step, tuple and state budgets, and the context. The counts
// stay charged even when a budget is exceeded, so the spend ledger
// reflects work actually performed; budget checks compare the running
// totals against the limits, which means a warm memo can still serve a
// degradation fallback after a trip (memo hits charge nothing).
func (g *Guard) chargeEval(resultTuples int) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.steps++
	g.states++
	g.tuples += int64(resultTuples)
	if g.lim.FaultStep > 0 && g.steps >= g.lim.FaultStep {
		if g.lim.FaultErr != nil {
			return g.lim.FaultErr
		}
		return ErrFaultInjected
	}
	if g.lim.MaxSteps > 0 && g.steps > g.lim.MaxSteps {
		return &BudgetError{Resource: "steps", Spent: g.steps, Limit: g.lim.MaxSteps, Phase: g.phase}
	}
	if g.lim.MaxTuples > 0 && g.tuples > g.lim.MaxTuples {
		return &BudgetError{Resource: "tuples", Spent: g.tuples, Limit: g.lim.MaxTuples, Phase: g.phase}
	}
	if g.lim.MaxStates > 0 && g.states > g.lim.MaxStates {
		return &BudgetError{Resource: "states", Spent: g.states, Limit: g.lim.MaxStates, Phase: g.phase}
	}
	if g.ctx != nil {
		if cause := g.ctx.Err(); cause != nil {
			return g.cancelErrLocked(cause)
		}
	}
	return nil
}

// chargeStates charges n DP states against the state budget (the
// optimizer's counterpart of chargeEval; DP states examine memoized
// sizes but materialize nothing new).
func (g *Guard) chargeStates(n int) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.states += int64(n)
	if g.lim.MaxStates > 0 && g.states > g.lim.MaxStates {
		return &BudgetError{Resource: "states", Spent: g.states, Limit: g.lim.MaxStates, Phase: g.phase}
	}
	return nil
}

// Ledger pairs a guard with one family of obs counters and is the only
// way to charge a guard from outside this package. Each charge adds to
// the family's counters first and then charges the guard, so a charge
// that trips is counted on both sides, and the four families sum to the
// guard's ledger by construction:
//
//	eval.tuples + plan.yannakakis.tuples == tuples spent
//	eval.states + dp.states + plan.states + plan.yannakakis.states == states spent
//	eval.steps + plan.yannakakis.steps == steps spent
//
// A nil guard and a nil recorder are both no-ops, so a ledger over
// either half charges only the other. The zero Ledger charges nothing.
type Ledger struct {
	g                     *Guard
	tuples, states, steps *obs.Counter
}

// EvalLedger is the memoizing evaluator's family: eval.tuples,
// eval.states and eval.steps.
func EvalLedger(g *Guard, rec *obs.Recorder) Ledger {
	return Ledger{g: g,
		tuples: rec.Counter(obs.MetricEvalTuples),
		states: rec.Counter(obs.MetricEvalStates),
		steps:  rec.Counter(obs.MetricEvalSteps),
	}
}

// DPLedger is the exact optimizers' family, dp.states: the subset DPs,
// greedy, exhaustive enumeration and greedy with early stopping.
func DPLedger(g *Guard, rec *obs.Recorder) Ledger {
	return Ledger{g: g, states: rec.Counter(obs.MetricDPStates)}
}

// PlanLedger is estimate-costed planning's family, plan.states: the
// model DPs, model greedy and the costing of the acyclic join tree.
func PlanLedger(g *Guard, rec *obs.Recorder) Ledger {
	return Ledger{g: g, states: rec.Counter(obs.MetricPlanStates)}
}

// YannakakisLedger is the acyclic fast path's family:
// plan.yannakakis.tuples, .states and .steps.
func YannakakisLedger(g *Guard, rec *obs.Recorder) Ledger {
	return Ledger{g: g,
		tuples: rec.Counter(obs.MetricYannakakisTuples),
		states: rec.Counter(obs.MetricYannakakisStates),
		steps:  rec.Counter(obs.MetricYannakakisSteps),
	}
}

// ChargeEval counts and charges one join step that materialized
// resultTuples tuples: that many tuples, one state and one step.
func (l Ledger) ChargeEval(resultTuples int) error {
	l.tuples.Add(int64(resultTuples))
	l.states.Inc()
	l.steps.Inc()
	return l.g.chargeEval(resultTuples)
}

// ChargeStates counts and charges n states that materialized nothing.
func (l Ledger) ChargeStates(n int) error {
	l.states.Add(int64(n))
	return l.g.chargeStates(n)
}

// --- abort / recovery machinery ---

// abortPanic is the distinguished panic value used to unwind out of
// deep recursion and enumeration callbacks when a budget trips.
type abortPanic struct{ err error }

// Abort unwinds the current evaluation with err; it must be paired with
// a deferred Trap or Protect at the library edge.
func Abort(err error) { panic(abortPanic{err}) }

// Must aborts on a non-nil error — the form the evaluation hot paths
// use after a charge.
func Must(err error) {
	if err != nil {
		Abort(err)
	}
}

// Trap, deferred at a library edge, converts an Abort into the returned
// error. Any other panic is re-raised untouched, so genuine bugs still
// crash loudly in tests.
func Trap(errp *error) {
	if r := recover(); r != nil {
		if a, ok := r.(abortPanic); ok {
			*errp = a.err
			return
		}
		panic(r)
	}
}

// PanicError is a recovered panic converted to an error at a process
// boundary, carrying the panic value and the stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error summarizes the recovered panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("internal panic: %v", e.Value)
}

// Protect, deferred at a process boundary (cli.Run, the exported
// library facade), converts an Abort into its error and any other
// panic into a *PanicError, so malformed input or an internal
// invariant violation degrades to a reported error instead of a crash.
func Protect(errp *error) {
	if r := recover(); r != nil {
		if a, ok := r.(abortPanic); ok {
			*errp = a.err
			return
		}
		*errp = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// Recovered converts a recover() result into the error a panic boundary
// should surface: nil when there was no panic, the aborted error for a
// guard.Abort, and a *PanicError (with the stack at recovery time) for
// anything else. It is the goroutine-shaped counterpart of Protect —
// a worker cannot use a deferred Protect(&err) because each goroutine
// must route its error through a channel rather than a shared named
// return:
//
//	go func() {
//		defer wg.Done()
//		defer func() {
//			if err := guard.Recovered(recover()); err != nil {
//				errs <- err
//			}
//		}()
//		…
//	}()
func Recovered(r any) error {
	if r == nil {
		return nil
	}
	if a, ok := r.(abortPanic); ok {
		return a.err
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}
