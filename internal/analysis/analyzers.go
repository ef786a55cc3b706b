package analysis

// All returns the project's analyzer suite in the order joinlint runs
// it. Each analyzer protects one engine invariant:
//
//	determinism    the cost-model core reproduces bit-for-bit for the bench pipeline
//	nodirectio     library packages stay embeddable (no ambient stdio, no os.Exit)
//	panicmsg       panic reports name the failing layer without a stack
//	goroutineguard no goroutine can crash the process past the guard boundaries
//	jsontags       schema-versioned artifacts cannot drift via untagged fields
//	hotpath        //joinlint:hotpath kernel files stay allocation-disciplined
//	spanclose      every opened trace span is ended or handed to a caller
//	lockorder      no mutex held across a blocking op; the acquisition graph stays acyclic
//	atomicfield    sync/atomic fields are never accessed plainly, typed atomics never copied
//	ctxflow        library code threads caller contexts; exported blocking serve/guard APIs carry one
//	metricnames    every obs metric/span name comes from the internal/obs/names.go registry
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		NoDirectIO,
		PanicMsg,
		GoroutineGuard,
		JSONTags,
		HotPath,
		SpanClose,
		LockOrder,
		AtomicField,
		CtxFlow,
		MetricNames,
	}
}
