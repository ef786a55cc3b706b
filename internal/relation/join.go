package relation

//joinlint:hotpath

import (
	"runtime"
	"sync"
	"sync/atomic"

	"multijoin/internal/guard"
)

// The join kernel. Both sides are dictionary-encoded ID slabs, so the
// build and probe phases hash and compare machine words only. Schema
// position resolution is a single linear merge over the two sorted
// attribute lists (no per-call maps), and the output is emitted into
// one flat slab with no per-row dedup: a natural-join output row
// determines its (r row, s row) source pair — restricting it to R gives
// back the r row and to S the s row, both sets — so distinct pairs
// yield distinct outputs and the join of two sets is duplicate-free by
// construction.
//
// Above parallelJoinThreshold combined input rows (and when the schemes
// actually share attributes), the kernel partitions both sides by the
// shared-key hash and joins the partitions on a worker pool. Equal rows
// agree on their shared attributes, so they land in the same partition
// and per-partition independence holds; concatenating the partition
// slabs in fixed partition order keeps the result deterministic for a
// given input, independent of GOMAXPROCS.

// parallelJoinThreshold is the combined input row count above which
// Join switches to the partitioned parallel path. It is a variable so
// tests can force either path.
var parallelJoinThreshold = 1 << 13

// joinPartitionCount is the fixed number of hash partitions of the
// parallel path. Fixing it (rather than deriving it from GOMAXPROCS)
// keeps the output row order machine-independent.
const joinPartitionCount = 16

// joinPlan is the merged-schema layout of one join: the output scheme,
// the positions of the shared attributes on each side, and for every
// output column its source side and position.
type joinPlan struct {
	out     Schema
	rShared []int
	sShared []int
	fromS   []bool
	pos     []int
}

// planJoin resolves all schema positions for r ⋈ s in one linear merge
// over the sorted attribute lists.
func planJoin(rs, ss Schema) joinPlan {
	ra, sa := rs.Attrs(), ss.Attrs()
	n := len(ra) + len(sa)
	p := joinPlan{
		fromS: make([]bool, 0, n),
		pos:   make([]int, 0, n),
	}
	attrs := make([]Attr, 0, n)
	i, j := 0, 0
	for i < len(ra) && j < len(sa) {
		switch {
		case ra[i] == sa[j]:
			p.rShared = append(p.rShared, i)
			p.sShared = append(p.sShared, j)
			attrs = append(attrs, ra[i])
			p.fromS = append(p.fromS, false)
			p.pos = append(p.pos, i)
			i++
			j++
		case ra[i] < sa[j]:
			attrs = append(attrs, ra[i])
			p.fromS = append(p.fromS, false)
			p.pos = append(p.pos, i)
			i++
		default:
			attrs = append(attrs, sa[j])
			p.fromS = append(p.fromS, true)
			p.pos = append(p.pos, j)
			j++
		}
	}
	for ; i < len(ra); i++ {
		attrs = append(attrs, ra[i])
		p.fromS = append(p.fromS, false)
		p.pos = append(p.pos, i)
	}
	for ; j < len(sa); j++ {
		attrs = append(attrs, sa[j])
		p.fromS = append(p.fromS, true)
		p.pos = append(p.pos, j)
	}
	p.out = Schema{attrs: attrs}
	return p
}

// Join computes the natural join r ⋈ s:
//
//	{t over R ∪ S : t[R] ∈ r, t[S] ∈ s}
//
// When the schemes are disjoint this degenerates to the Cartesian
// product, exactly as in the paper's model (a "step that uses a Cartesian
// product" is simply a join of unlinked schemes).
func Join(r, s *Relation) *Relation {
	// Hash-join on the shared attributes. Build on the smaller input.
	if r.n > s.n {
		r, s = s, r
	}
	plan := planJoin(r.schema, s.schema)
	out := NewIn(r.dict, joinName(r, s), plan.out)
	sData := alignedData(s, r.dict)
	if len(plan.rShared) > 0 && r.n+s.n >= parallelJoinThreshold {
		joinPartitioned(out, r, s, sData, plan)
	} else {
		joinSequential(out, r, s, sData, plan)
	}
	return out
}

// joinSequential builds on r, probes with s, and appends matches to
// out's slab in probe order, each probe row's matches in r's row order —
// the same tuple order the pre-dictionary kernel produced. The build
// side goes into the index in reverse, so its most-recent-first buckets
// give a key's rows back in row order.
func joinSequential(out *Relation, r, s *Relation, sData []uint32, plan joinPlan) {
	build := newRowIndex(r.n)
	for i := r.n - 1; i >= 0; i-- {
		build.insert(hashIDsAt(r.rowIDs(i), plan.rShared), int32(i))
	}
	w := plan.out.Len()
	sw := s.schema.Len()
	out.data = make([]uint32, 0, w*max(r.n, s.n))
	var scratch [scratchWidth]uint32
	buf := scratch[:]
	if w > scratchWidth {
		buf = make([]uint32, w)
	}
	buf = buf[:w]
	for j := 0; j < s.n; j++ {
		sRow := sData[j*sw : j*sw+sw]
		for e := build.find(hashIDsAt(sRow, plan.sShared)); e != 0; e = build.next(e) {
			rRow := r.rowIDs(build.ord(e))
			if !equalIDsAt(rRow, plan.rShared, sRow, plan.sShared) {
				continue
			}
			for k := 0; k < w; k++ {
				if plan.fromS[k] {
					buf[k] = sRow[plan.pos[k]]
				} else {
					buf[k] = rRow[plan.pos[k]]
				}
			}
			out.data = append(out.data, buf...)
			out.n++
		}
	}
}

// bucketRows assigns each row to a partition by its shared-key hash,
// returning per-partition row ordinal lists carved out of one exactly
// sized backing array (a counting pass, then a fill pass).
func bucketRows(data []uint32, w, n int, pos []int) [][]int32 {
	counts := make([]int, joinPartitionCount)
	parts := make([]uint8, n)
	for i := 0; i < n; i++ {
		p := uint8(hashIDsAt(data[i*w:i*w+w], pos) % joinPartitionCount)
		parts[i] = p
		counts[p]++
	}
	backing := make([]int32, 0, n)
	out := make([][]int32, joinPartitionCount)
	off := 0
	for p := range out {
		out[p] = backing[off : off : off+counts[p]]
		off += counts[p]
	}
	for i := 0; i < n; i++ {
		out[parts[i]] = append(out[parts[i]], int32(i))
	}
	return out
}

// joinPartitioned is the parallel path: both sides are partitioned by
// the shared-key hash, a worker pool joins the partition pairs into
// per-partition slabs, and the slabs are concatenated in partition
// order. Every worker sits behind a guard.Recovered boundary so a
// panicking invariant surfaces in the calling goroutine instead of
// killing the process.
func joinPartitioned(out *Relation, r, s *Relation, sData []uint32, plan joinPlan) {
	rw, sw := r.schema.Len(), s.schema.Len()
	rIdx := bucketRows(r.data, rw, r.n, plan.rShared)
	sIdx := bucketRows(sData, sw, s.n, plan.sShared)

	workers := runtime.GOMAXPROCS(0)
	if workers > joinPartitionCount {
		workers = joinPartitionCount
	}
	slabs := make([][]uint32, joinPartitionCount)
	var next atomic.Int32
	var failMu sync.Mutex
	var failErr error
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Panic boundary: a worker panic must stop this join and
			// re-surface in the caller, not kill the process.
			defer func() {
				if err := guard.Recovered(recover()); err != nil {
					failMu.Lock()
					if failErr == nil {
						failErr = err
					}
					failMu.Unlock()
				}
			}()
			for {
				pi := int(next.Add(1)) - 1
				if pi >= joinPartitionCount {
					return
				}
				slabs[pi] = joinPartition(r, sData, sw, rIdx[pi], sIdx[pi], plan)
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		//lint:ignore panicmsg re-raising a worker's recovered panic (already prefixed or guard-typed); the join has no error return
		panic(failErr)
	}
	total := 0
	for _, slab := range slabs {
		total += len(slab)
	}
	w := plan.out.Len()
	out.data = make([]uint32, 0, total)
	for _, slab := range slabs {
		out.data = append(out.data, slab...)
	}
	out.n = total / w
	out.partitions = joinPartitionCount
}

// joinPartition joins one partition pair into a fresh slab, in the
// order joinSequential would give the partition's rows.
func joinPartition(r *Relation, sData []uint32, sw int, rRows, sRows []int32, plan joinPlan) []uint32 {
	if len(rRows) == 0 || len(sRows) == 0 {
		return nil
	}
	build := newRowIndex(len(rRows))
	for k := len(rRows) - 1; k >= 0; k-- {
		build.insert(hashIDsAt(r.rowIDs(int(rRows[k])), plan.rShared), rRows[k])
	}
	w := plan.out.Len()
	slab := make([]uint32, 0, w*max(len(rRows), len(sRows)))
	var scratch [scratchWidth]uint32
	buf := scratch[:]
	if w > scratchWidth {
		buf = make([]uint32, w)
	}
	buf = buf[:w]
	for _, sj := range sRows {
		sRow := sData[int(sj)*sw : int(sj)*sw+sw]
		for e := build.find(hashIDsAt(sRow, plan.sShared)); e != 0; e = build.next(e) {
			rRow := r.rowIDs(build.ord(e))
			if !equalIDsAt(rRow, plan.rShared, sRow, plan.sShared) {
				continue
			}
			for k := 0; k < w; k++ {
				if plan.fromS[k] {
					buf[k] = sRow[plan.pos[k]]
				} else {
					buf[k] = rRow[plan.pos[k]]
				}
			}
			slab = append(slab, buf...)
		}
	}
	return slab
}

// Semijoin computes r ⋉ s: the tuples of r that join with at least one
// tuple of s. This is the primitive of the Bernstein–Chiu reducer used in
// the Section 5 experiments. The output shares r's rows, so it is
// duplicate-free without touching an index.
func Semijoin(r, s *Relation) *Relation {
	shared := r.schema.Intersect(s.schema)
	out := NewIn(r.dict, r.name, r.schema)
	if shared.Empty() {
		// Unlinked: r ⋉ s is r itself unless s is empty.
		if s.Empty() {
			return out
		}
		return r.Clone().WithName(r.name)
	}
	rShared := positions(r.schema, shared)
	sShared := positions(s.schema, shared)
	sData := alignedData(s, r.dict)
	sw := s.schema.Len()
	seen := newRowIndex(s.n)
	for j := 0; j < s.n; j++ {
		seen.insert(hashIDsAt(sData[j*sw:j*sw+sw], sShared), int32(j))
	}
	for i := 0; i < r.n; i++ {
		row := r.rowIDs(i)
		for e := seen.find(hashIDsAt(row, rShared)); e != 0; e = seen.next(e) {
			sj := seen.ord(e)
			sRow := sData[sj*sw : sj*sw+sw]
			if equalIDsAt(row, rShared, sRow, sShared) {
				out.appendIDs(row)
				break
			}
		}
	}
	return out
}

func joinName(r, s *Relation) string {
	if r.name == "" || s.name == "" {
		return ""
	}
	return "(" + r.name + "⋈" + s.name + ")"
}
