package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The row-order reference. Join output slabs, later joins and the
// golden facts depend on the order rows come back in, and the oracle
// tests compare sets, so these tests hold the kernel to the groupMap
// index it replaced: the join (both paths), the semijoin and the
// per-row dedup below are that index's code, and every slab the kernel
// builds must equal theirs row for row.

// groupMap maps 64-bit hashes to lists of row ordinals in insertion
// order: a hash with a single row stores the ordinal in the map value,
// and a repeated hash spills into a chain.
type groupMap struct {
	m     map[uint64]int32
	spill [][]int32
}

func newGroupMap(capacity int) groupMap {
	return groupMap{m: make(map[uint64]int32, capacity)}
}

func (g *groupMap) add(h uint64, i int32) {
	v, ok := g.m[h]
	if !ok {
		g.m[h] = i
		return
	}
	if v >= 0 {
		g.m[h] = int32(^len(g.spill))
		g.spill = append(g.spill, []int32{v, i})
		return
	}
	g.spill[^v] = append(g.spill[^v], i)
}

// rows returns the ordinals recorded under h, in insertion order.
func (g *groupMap) rows(h uint64) []int32 {
	v, ok := g.m[h]
	if !ok {
		return nil
	}
	if v >= 0 {
		return []int32{v}
	}
	return g.spill[^v]
}

// refSet is a slab deduplicated row by row through a groupMap, the way
// insertIDs kept a relation before the loader deduplicated once.
type refSet struct {
	w    int
	data []uint32
	n    int
	idx  groupMap
}

func newRefSet(w int) *refSet { return &refSet{w: w, idx: newGroupMap(0)} }

func (s *refSet) insert(ids []uint32) {
	h := hashIDs(ids)
	for _, i := range s.idx.rows(h) {
		if equalIDs(s.data[int(i)*s.w:int(i)*s.w+s.w], ids) {
			return
		}
	}
	s.data = append(s.data, ids...)
	s.idx.add(h, int32(s.n))
	s.n++
}

// refJoin is the groupMap join kernel, on the partitioned path when
// partitioned is set (the partitions joined one after another, which
// gives the worker pool's concatenated order).
func refJoin(r, s *Relation, partitioned bool) (Schema, []uint32) {
	if r.n > s.n {
		r, s = s, r
	}
	plan := planJoin(r.schema, s.schema)
	sData := alignedData(s, r.dict)
	sw := s.schema.Len()
	if !partitioned || len(plan.rShared) == 0 {
		all := func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(i)
			}
			return out
		}
		return plan.out, refJoinRows(r, sData, sw, all(r.n), all(s.n), plan)
	}
	rIdx := bucketRows(r.data, r.schema.Len(), r.n, plan.rShared)
	sIdx := bucketRows(sData, sw, s.n, plan.sShared)
	var out []uint32
	for p := 0; p < joinPartitionCount; p++ {
		out = append(out, refJoinRows(r, sData, sw, rIdx[p], sIdx[p], plan)...)
	}
	return plan.out, out
}

// refJoinRows joins the given rows of r and s, probing in s's order.
func refJoinRows(r *Relation, sData []uint32, sw int, rRows, sRows []int32, plan joinPlan) []uint32 {
	build := newGroupMap(len(rRows))
	for _, ri := range rRows {
		build.add(hashIDsAt(r.rowIDs(int(ri)), plan.rShared), ri)
	}
	var out []uint32
	for _, sj := range sRows {
		sRow := sData[int(sj)*sw : int(sj)*sw+sw]
		for _, ri := range build.rows(hashIDsAt(sRow, plan.sShared)) {
			rRow := r.rowIDs(int(ri))
			if !equalIDsAt(rRow, plan.rShared, sRow, plan.sShared) {
				continue
			}
			for k := range plan.pos {
				if plan.fromS[k] {
					out = append(out, sRow[plan.pos[k]])
				} else {
					out = append(out, rRow[plan.pos[k]])
				}
			}
		}
	}
	return out
}

// refSemijoin is the groupMap semijoin: r's rows, in r's order, that
// match some row of s.
func refSemijoin(r, s *Relation) []uint32 {
	shared := r.schema.Intersect(s.schema)
	if shared.Empty() {
		if s.Empty() {
			return nil
		}
		return r.data
	}
	rShared, sShared := positions(r.schema, shared), positions(s.schema, shared)
	sData := alignedData(s, r.dict)
	sw := s.schema.Len()
	seen := newGroupMap(s.n)
	for j := 0; j < s.n; j++ {
		seen.add(hashIDsAt(sData[j*sw:j*sw+sw], sShared), int32(j))
	}
	var out []uint32
	for i := 0; i < r.n; i++ {
		row := r.rowIDs(i)
		for _, sj := range seen.rows(hashIDsAt(row, rShared)) {
			if equalIDsAt(row, rShared, sData[int(sj)*sw:int(sj)*sw+sw], sShared) {
				out = append(out, row...)
				break
			}
		}
	}
	return out
}

// orderRel draws rows over schema: attributes in keys from a domain of
// 3, so each key has many rows, the others from a domain of 40. dict
// nil selects the shared dictionary.
func orderRel(rng *rand.Rand, dict *Dict, name, schema, keys string, rows int) *Relation {
	sch := SchemaFromString(schema)
	r := NewIn(dict, name, sch)
	row := make([]Value, sch.Len())
	for i := 0; i < rows; i++ {
		for j, a := range sch.Attrs() {
			domain := 40
			if strings.Contains(keys, string(a)) {
				domain = 3
			}
			row[j] = Value(fmt.Sprintf("v%d", rng.Intn(domain)))
		}
		r.InsertRow(row)
	}
	return r
}

// sameSlab fails the test unless got holds exactly the rows data holds,
// in the same order, over schema.
func sameSlab(t *testing.T, what string, got *Relation, schema Schema, data []uint32) {
	t.Helper()
	if !got.schema.Equal(schema) {
		t.Fatalf("%s: schema %v, reference %v", what, got.schema, schema)
	}
	if w := schema.Len(); w > 0 && got.n != len(data)/w {
		t.Fatalf("%s: %d rows, reference %d", what, got.n, len(data)/w)
	}
	if len(got.data) != len(data) || (len(data) > 0 && !reflect.DeepEqual(got.data, data)) {
		t.Fatalf("%s: slab differs from the groupMap reference:\n got %v\nwant %v", what, got.data, data)
	}
}

func TestKernelRowOrderMatchesGroupMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cases := []struct{ r, s, keys string }{
		{"AB", "BC", "B"},
		{"ABC", "BCD", "BC"},
		{"ABCD", "CF", "C"},
		{"AB", "AB", "AB"},
		{"A", "A", "A"},
		{"AB", "CD", "ABCD"},
	}
	for _, c := range cases {
		for trial := 0; trial < 20; trial++ {
			var sDict *Dict
			if trial%4 == 3 {
				sDict = NewDict() // the kernel translates s into r's dictionary
			}
			r := orderRel(rng, nil, "R", c.r, c.keys, 20+rng.Intn(150))
			s := orderRel(rng, sDict, "S", c.s, c.keys, 20+rng.Intn(150))
			name := fmt.Sprintf("%s⋈%s trial %d", c.r, c.s, trial)

			old := parallelJoinThreshold
			parallelJoinThreshold = 1 << 30
			seq := Join(r, s)
			parallelJoinThreshold = 1
			par := Join(r, s)
			parallelJoinThreshold = old
			schema, want := refJoin(r, s, false)
			sameSlab(t, name+" sequential", seq, schema, want)
			schema, want = refJoin(r, s, true)
			sameSlab(t, name+" partitioned", par, schema, want)

			sameSlab(t, name+" r⋉s", Semijoin(r, s), r.schema, refSemijoin(r, s))
			sameSlab(t, name+" s⋉r", Semijoin(s, r), s.schema, refSemijoin(s, r))

			// Project: a key column repeats its values over many rows.
			x := SchemaFromString(c.r[:1])
			proj := newRefSet(x.Len())
			pos := positions(r.schema, x)
			for i := 0; i < r.n; i++ {
				ids := make([]uint32, len(pos))
				for j, p := range pos {
					ids[j] = r.rowIDs(i)[p]
				}
				proj.insert(ids)
			}
			sameSlab(t, name+" project", Project(r, x), x, proj.data)

			// Union with a relation over r's scheme that shares rows.
			u := orderRel(rng, sDict, "U", c.r, c.keys, 20+rng.Intn(100))
			union := newRefSet(r.schema.Len())
			for i := 0; i < r.n; i++ {
				union.insert(r.rowIDs(i))
			}
			uData := alignedData(u, r.dict)
			for j := 0; j < u.n; j++ {
				union.insert(uData[j*r.schema.Len() : (j+1)*r.schema.Len()])
			}
			sameSlab(t, name+" union", Union(r, u), r.schema, union.data)
		}
	}
}

// TestLoaderRowOrderMatchesGroupMapReference: a Loader fed rows with
// many repeats, and more rows after a first Relation call, holds the
// slab per-row dedup built after each call.
func TestLoaderRowOrderMatchesGroupMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	written := []Attr{"C", "A", "B"}
	for trial := 0; trial < 20; trial++ {
		dict := NewDict()
		ld, ok := NewLoader(dict, "R", written)
		if !ok {
			t.Fatal("NewLoader rejected distinct attributes")
		}
		order := ld.order
		ref := newRefSet(len(written))
		vals := make([][]byte, len(written))
		ids := make([]uint32, len(written))
		for batch := 0; batch < 3; batch++ {
			for i := rng.Intn(200); i > 0; i-- {
				for j := range vals {
					vals[j] = []byte(fmt.Sprintf("v%d", rng.Intn(2+4*j)))
				}
				if err := ld.Add(vals); err != nil {
					t.Fatal(err)
				}
				for k, p := range order {
					ids[k], _ = dict.Lookup(Value(vals[p]))
				}
				ref.insert(ids)
			}
			got := ld.Relation()
			sameSlab(t, fmt.Sprintf("trial %d batch %d", trial, batch), got, got.schema, ref.data)
			// The index Relation leaves behind answers membership.
			for i := 0; i < got.n; i++ {
				if got.lookupIDs(got.rowIDs(i)) != i {
					t.Fatalf("trial %d batch %d: row %d not found at its ordinal", trial, batch, i)
				}
			}
		}
	}
}
