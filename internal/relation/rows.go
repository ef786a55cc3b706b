package relation

//joinlint:hotpath

import "math/bits"

// Row-slab internals. A Relation stores its state as one flat row-major
// []uint32 slab of dictionary IDs (width = schema.Len()), with a lazy
// hash index (a rowIndex of 64-bit FNV-1a hashes over the IDs,
// collision-confirmed by ID comparison) for dedup and membership. The
// slab layout means a join emits rows by copying machine words, never
// allocating or hashing strings, and the lazy index means derived
// relations whose rows are duplicate-free by construction (join
// outputs, semijoins, selections) never pay for an index at all.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashIDs hashes a full ID row.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h = (h ^ uint64(id)) * fnvPrime64
	}
	return h
}

// hashIDsAt hashes the IDs at the given positions of a row — the join
// and semijoin key hash over the shared attributes.
func hashIDsAt(row []uint32, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h = (h ^ uint64(row[p])) * fnvPrime64
	}
	return h
}

// equalIDs reports whether two ID rows are identical.
func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// equalIDsAt reports whether a's IDs at apos equal b's IDs at bpos
// (len(apos) == len(bpos) by construction).
func equalIDsAt(a []uint32, apos []int, b []uint32, bpos []int) bool {
	for i, p := range apos {
		if a[p] != b[bpos[i]] {
			return false
		}
	}
	return true
}

// rowIndex is a bucket-chain hash table from 64-bit row hashes to row
// ordinals. heads holds, per bucket, the 1-based position in ents of
// the bucket's most recent entry, 0 meaning empty; each entry holds its
// ordinal, its full hash and the position of the next entry in its
// bucket. A bucket is the top bits of a multiply-shift of the FNV hash,
// and lookups compare the full hash before the caller compares IDs.
//
// An index built for n rows allocates its two slices once and never
// rehashes. Only an index that outgrows its size — rows appended to a
// relation that already has one — doubles, relinking its entries from
// the stored hashes. Buckets are most-recent-first, so a caller that
// wants a key's rows back in row order inserts them in reverse.
type rowIndex struct {
	heads []int32
	ents  []indexEntry
	shift uint // 64 − log2(len(heads))
}

type indexEntry struct {
	hash uint64
	ord  int32
	next int32 // 1-based position of the next entry in the bucket, 0 at the end
}

// newRowIndex returns an empty index sized for n entries.
func newRowIndex(n int) rowIndex {
	b := bits.Len(uint(max(n, 1) - 1))
	return rowIndex{heads: make([]int32, 1<<b), ents: make([]indexEntry, 0, n), shift: uint(64 - b)}
}

// bucket maps a hash to its bucket (a Fibonacci multiply-shift, so every
// bit of h reaches the top bits the bucket is taken from).
func (t *rowIndex) bucket(h uint64) uint64 {
	return (h * 0x9e3779b97f4a7c15) >> t.shift
}

// insert records row ordinal ord under hash h, at the front of its
// bucket, doubling the table first if it is full.
func (t *rowIndex) insert(h uint64, ord int32) {
	if len(t.ents) >= len(t.heads) {
		t.grow()
	}
	b := t.bucket(h)
	t.ents = append(t.ents, indexEntry{hash: h, ord: ord, next: t.heads[b]})
	t.heads[b] = int32(len(t.ents))
}

// grow doubles the bucket array and relinks every entry, oldest first,
// so each bucket stays most-recent-first.
func (t *rowIndex) grow() {
	t.heads = make([]int32, 2*len(t.heads))
	t.shift--
	for i := range t.ents {
		e := &t.ents[i]
		b := t.bucket(e.hash)
		e.next = t.heads[b]
		t.heads[b] = int32(i + 1)
	}
}

// find returns the position of the first entry hashed h, or 0.
func (t *rowIndex) find(h uint64) int32 {
	e := t.heads[t.bucket(h)]
	for e != 0 && t.ents[e-1].hash != h {
		e = t.ents[e-1].next
	}
	return e
}

// next returns the position of the next entry after e with e's hash,
// or 0.
func (t *rowIndex) next(e int32) int32 {
	h := t.ents[e-1].hash
	e = t.ents[e-1].next
	for e != 0 && t.ents[e-1].hash != h {
		e = t.ents[e-1].next
	}
	return e
}

// ord returns the row ordinal of entry e.
func (t *rowIndex) ord(e int32) int { return int(t.ents[e-1].ord) }

// rowIDs returns the i-th row of the slab as a shared subslice. The
// caller must not modify it.
func (r *Relation) rowIDs(i int) []uint32 {
	w := r.schema.Len()
	return r.data[i*w : i*w+w]
}

// ensureIndex builds the hash index over the current slab if it is not
// already present. Relations produced by the duplicate-free operators
// carry no index until a membership question is first asked — which may
// now happen from several goroutines at once, since memoized relations
// are shared across the parallel subspace searches. The index pointer
// is therefore published with a compare-and-swap: concurrent builders
// race benignly (each builds an equivalent index over the same
// immutable rows; the first store wins) and readers always observe
// either nil or a fully built index.
func (r *Relation) ensureIndex() {
	if r.index.Load() != nil {
		return
	}
	idx := newRowIndex(r.n)
	for i := 0; i < r.n; i++ {
		idx.insert(hashIDs(r.rowIDs(i)), int32(i))
	}
	r.index.CompareAndSwap(nil, &idx)
}

// lookupIDs returns the ordinal of the row equal to ids, or −1. The
// index must already exist.
func (r *Relation) lookupIDs(ids []uint32) int {
	return r.lookupIn(r.index.Load(), hashIDs(ids), ids)
}

// lookupIn returns the ordinal of the row equal to ids, whose hash is
// h, among the rows idx holds, or −1.
func (r *Relation) lookupIn(idx *rowIndex, h uint64, ids []uint32) int {
	for e := idx.find(h); e != 0; e = idx.next(e) {
		if i := idx.ord(e); equalIDs(r.rowIDs(i), ids) {
			return i
		}
	}
	return -1
}

// appendIDs appends a row known not to duplicate any existing row,
// keeping the index (if built) in step. Construction is single-owner:
// only the relation's builder appends, so the incremental index update
// needs no synchronization beyond the atomic pointer read.
func (r *Relation) appendIDs(ids []uint32) {
	r.data = append(r.data, ids...)
	if idx := r.index.Load(); idx != nil {
		idx.insert(hashIDs(ids), int32(r.n))
	}
	r.n++
}

// insertIDs appends a row unless an equal row is already present,
// reporting whether it was inserted.
func (r *Relation) insertIDs(ids []uint32) bool {
	r.ensureIndex()
	if r.lookupIDs(ids) >= 0 {
		return false
	}
	r.appendIDs(ids)
	return true
}

// dedupFrom drops every row at ordinal from or later that repeats an
// earlier row, keeping first occurrences in order, and leaves the index
// built over the rows kept. The rows before from must be distinct and
// indexed; the first call, from 0, builds the index sized to the whole
// slab, so it never regrows.
func (r *Relation) dedupFrom(from int) {
	idx := r.index.Load()
	if idx == nil {
		t := newRowIndex(r.n)
		idx = &t
		r.index.Store(idx)
	}
	w := r.schema.Len()
	kept := from
	for i := from; i < r.n; i++ {
		row := r.rowIDs(i)
		h := hashIDs(row)
		if r.lookupIn(idx, h, row) >= 0 {
			continue
		}
		copy(r.data[kept*w:kept*w+w], row)
		idx.insert(h, int32(kept))
		kept++
	}
	r.data = r.data[:kept*w]
	r.n = kept
}

// scratchWidth is the widest row interned through a stack buffer; wider
// schemas (rare) fall back to a heap scratch.
const scratchWidth = 16

// internRow interns a positional value row into the relation's
// dictionary and inserts it with dedup. buf is the caller's scratch
// (usually a stack array), reused across calls so duplicate inserts
// allocate nothing.
func (r *Relation) internRow(row []Value, buf []uint32) {
	for i, v := range row {
		buf[i] = r.dict.ID(v)
	}
	r.insertIDs(buf[:len(row)])
}

// translator converts IDs of one dictionary into another, caching the
// mapping. With intern true unseen values are added to the target;
// otherwise a missing value reports ok == false (no row of the target
// can contain it).
type translator struct {
	from, to *Dict
	intern   bool
	cache    map[uint32]uint32
	missing  map[uint32]bool
}

func newTranslator(from, to *Dict, intern bool) *translator {
	return &translator{from: from, to: to, intern: intern,
		cache: make(map[uint32]uint32), missing: make(map[uint32]bool)}
}

func (t *translator) id(id uint32) (uint32, bool) {
	if out, ok := t.cache[id]; ok {
		return out, true
	}
	if t.missing[id] {
		return 0, false
	}
	v := t.from.Value(id)
	if t.intern {
		out := t.to.ID(v)
		t.cache[id] = out
		return out, true
	}
	out, ok := t.to.Lookup(v)
	if !ok {
		t.missing[id] = true
		return 0, false
	}
	t.cache[id] = out
	return out, true
}

// row translates a whole row through the cache into buf; ok is false
// when any value is unknown to the target dictionary.
func (t *translator) row(ids []uint32, buf []uint32) ([]uint32, bool) {
	for i, id := range ids {
		out, ok := t.id(id)
		if !ok {
			return nil, false
		}
		buf[i] = out
	}
	return buf[:len(ids)], true
}

// alignedData returns s's row slab re-encoded in dict, interning as
// needed. When s already uses dict the slab is shared, not copied.
func alignedData(s *Relation, dict *Dict) []uint32 {
	if s.dict == dict {
		return s.data
	}
	tr := newTranslator(s.dict, dict, true)
	out := make([]uint32, len(s.data))
	for i, id := range s.data {
		out[i], _ = tr.id(id)
	}
	return out
}
