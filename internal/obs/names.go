package obs

// The metric-name registry. Every counter, gauge, timer, labeled
// series, histogram and span name the engine registers lives here —
// either as a constant or as a builder for the few families whose last
// segment is data-dependent (subspace, ladder rung, tenant class,
// phase label). The `metricnames` analyzer in internal/analysis
// enforces that no other package passes a name to a Recorder or Span
// registration call unless it comes from this file, which pins the
// code, the Prometheus exposition, bench schema v5 and DESIGN §8's
// metric→paper-quantity table to a single vocabulary.
//
// Naming scheme: Metric* for counters/gauges/timers/labeled series/
// histograms, Span* for trace spans. Builders end in a noun describing
// the variable segment and return the same strings the call sites
// previously assembled inline.

// Evaluator and join-kernel metrics (internal/database, internal/relation).
const (
	MetricEvalMemoHits     = "eval.memo.hits"
	MetricEvalMemoMisses   = "eval.memo.misses"
	MetricEvalTuples       = "eval.tuples"
	MetricEvalStates       = "eval.states"
	MetricEvalSteps        = "eval.steps"
	MetricEvalInternValues = "eval.intern.values"
	MetricJoinPartitions   = "join.partitions"
)

// Optimizer metrics (internal/optimizer). The per-subspace dp.<space>.*
// family is built by the MetricDPSpace* builders below.
const (
	MetricDPStates             = "dp.states"
	MetricDPAblationStates     = "dp.ablation.states"
	MetricGreedyStates         = "greedy.states"
	MetricGreedyWall           = "greedy.wall"
	MetricGreedyEarlyStates    = "greedy.early.states"
	MetricGreedyEarlyWall      = "greedy.early.wall"
	MetricExhaustiveStrategies = "exhaustive.strategies"
	MetricExhaustiveWall       = "exhaustive.wall"
	MetricOptimaEnumerated     = "optima.enumerated"
	MetricOptimaFound          = "optima.found"
	MetricOptimaWall           = "optima.wall"
)

// Estimate-costed planning metrics (internal/optimizer model searches,
// internal/core AnalyzeEstimated). The per-subspace plan.<space>.*
// family is built by the MetricPlanSpace* builders below; plan.states
// is guard.PlanLedger's family, the planning pipeline's term of the
// guard's state ledger as dp.states (guard.DPLedger) is the exact
// pipeline's.
const (
	MetricPlanStates       = "plan.states"
	MetricPlanWall         = "plan.wall"
	MetricPlanCatalogWall  = "plan.catalog.wall"
	MetricPlanGreedyStates = "plan.greedy.states"
	MetricPlanGreedyWall   = "plan.greedy.wall"
)

// Guard-ledger gauges and degradation counters (internal/cli,
// internal/core).
const (
	MetricGuardSpentTuples = "guard.spent.tuples"
	MetricGuardSpentStates = "guard.spent.states"
	MetricGuardSpentSteps  = "guard.spent.steps"
	MetricGuardLimitTuples = "guard.limit.tuples"
	MetricGuardLimitStates = "guard.limit.states"
	MetricGuardLimitSteps  = "guard.limit.steps"
	MetricGuardTrips       = "guard.trips"
	MetricDegradeDP        = "degrade.dp"
	MetricDegradeGreedy    = "degrade.greedy"
)

// Theorem-verification metrics (internal/core).
const (
	MetricVerifyThm1Strategies  = "verify.thm1.strategies"
	MetricVerifyThm1Wall        = "verify.thm1.wall"
	MetricVerifyThm2Strategies  = "verify.thm2.strategies"
	MetricVerifyThm2Wall        = "verify.thm2.wall"
	MetricVerifyThm3Strategies  = "verify.thm3.strategies"
	MetricVerifyThm3Wall        = "verify.thm3.wall"
	MetricVerifyCounterexamples = "verify.counterexamples"
)

// MetricAnalyzeParallelWall named the wall timer of the analysis's
// four-subspace fan-out.
//
// Deprecated: the subspaces run one at a time and nothing records this
// timer; a snapshot reads it as zero.
const MetricAnalyzeParallelWall = "analyze.parallel.wall"

// Acyclic fast-path metrics (internal/semijoin, internal/core): the
// governed Bernstein–Chiu reducer and the Yannakakis join phase charge
// the guard through guard.YannakakisLedger, so the guard ledger and the
// tuples/states/steps counters reconcile exactly — including on runs a
// budget tripped mid-reduction.
const (
	MetricYannakakisTuples    = "plan.yannakakis.tuples"
	MetricYannakakisStates    = "plan.yannakakis.states"
	MetricYannakakisSteps     = "plan.yannakakis.steps"
	MetricYannakakisSemijoins = "plan.yannakakis.semijoins"
	MetricYannakakisJoins     = "plan.yannakakis.joins"
	MetricYannakakisPasses    = "plan.yannakakis.passes"
	MetricYannakakisWall      = "plan.yannakakis.wall"
)

// Serving-plane metrics (internal/serve). The per-tenant and per-rung
// families are built by the MetricTenant*/MetricDegradedTo builders.
const (
	MetricServeRequests       = "serve.requests"
	MetricServeOK             = "serve.ok"
	MetricServeFailed         = "serve.failed"
	MetricServeRequestWall    = "serve.request"
	MetricServeDrain          = "serve.drain"
	MetricServeDrainPanic     = "serve.drain.panic"
	MetricServeShed           = "serve.shed"
	MetricServeAdmitWait      = "serve.admit.wait"
	MetricServeShedWait       = "serve.shed.wait"
	MetricServeAdmitWaiting   = "serve.admit.waiting"
	MetricServeAdmitRunning   = "serve.admit.running"
	MetricServeDegraded       = "serve.degraded"
	MetricServeTrips          = "serve.trips"
	MetricServeChaosFault     = "serve.chaos.fault"
	MetricServeChaosSlow      = "serve.chaos.slow"
	MetricServeChaosCancel    = "serve.chaos.cancel"
	MetricServeCacheHit       = "serve.cache.hit"
	MetricServeCacheMiss      = "serve.cache.miss"
	MetricServeCacheEvict     = "serve.cache.evict"
	MetricServeCacheSize      = "serve.cache.size"
	MetricServeRequestsBy     = "serve.requests.by"
	MetricServeRequestLatency = "serve.request.latency"
	MetricServeRequestTuples  = "serve.request.tuples"
)

// Span names. Phase, subspace and rung spans are built by the Span*
// builders below.
const (
	SpanRequest   = "request"
	SpanAdmission = "admission"
	SpanOptimize  = "optimize"
	SpanExecute   = "execute"
)

// MetricDPSpaceStates names the per-subspace DP state counter,
// dp.<space>.states.
func MetricDPSpaceStates(space string) string { return "dp." + space + ".states" }

// MetricDPSpacePruned names the per-subspace pruning counter,
// dp.<space>.pruned.
func MetricDPSpacePruned(space string) string { return "dp." + space + ".pruned" }

// MetricDPSpaceCartesian names the per-subspace cartesian-plan counter,
// dp.<space>.cartesian.
func MetricDPSpaceCartesian(space string) string { return "dp." + space + ".cartesian" }

// MetricDPSpaceWall names the per-subspace DP wall timer, dp.<space>.wall.
func MetricDPSpaceWall(space string) string { return "dp." + space + ".wall" }

// MetricPlanSpaceStates names the per-subspace planning-DP state
// counter, plan.<space>.states.
func MetricPlanSpaceStates(space string) string { return "plan." + space + ".states" }

// MetricPlanSpacePruned names the per-subspace planning-DP pruning
// counter, plan.<space>.pruned.
func MetricPlanSpacePruned(space string) string { return "plan." + space + ".pruned" }

// MetricPlanSpaceCartesian names the per-subspace planning-DP
// cartesian-plan counter, plan.<space>.cartesian.
func MetricPlanSpaceCartesian(space string) string { return "plan." + space + ".cartesian" }

// MetricPlanSpaceWall names the per-subspace planning-DP wall timer,
// plan.<space>.wall.
func MetricPlanSpaceWall(space string) string { return "plan." + space + ".wall" }

// MetricPhaseWall names a phase's wall timer, phase.<name>.
func MetricPhaseWall(phase string) string { return "phase." + phase }

// MetricDegradedTo names the counter for requests answered at the given
// ladder rung below their start rung, serve.degraded.<rung>.
func MetricDegradedTo(rung string) string { return "serve.degraded." + rung }

// MetricTenantRequests names a tenant class's request counter,
// serve.tenant.<class>.requests.
func MetricTenantRequests(class string) string { return "serve.tenant." + class + ".requests" }

// MetricTenantOK names a tenant class's success counter,
// serve.tenant.<class>.ok.
func MetricTenantOK(class string) string { return "serve.tenant." + class + ".ok" }

// MetricTenantShed names a tenant class's shed counter,
// serve.tenant.<class>.shed.
func MetricTenantShed(class string) string { return "serve.tenant." + class + ".shed" }

// SpanPhase names a phase span, phase:<name>.
func SpanPhase(phase string) string { return "phase:" + phase }

// SpanPlan names the estimate-costed planning span enclosing the
// catalog build and the model searches.
const SpanPlan = "plan"

// SpanPlanSpace names one subspace's estimate-costed planning span,
// plan:<space>.
func SpanPlanSpace(space string) string { return "plan:" + space }

// SpanRung names a ladder-rung attempt span, rung:<rung>.
func SpanRung(rung string) string { return "rung:" + rung }
