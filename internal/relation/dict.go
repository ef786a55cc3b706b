package relation

//joinlint:hotpath

import "sync"

// Dict is an interning dictionary: it maps each distinct Value to a
// dense uint32 ID and back. Relations store rows as ID slabs instead of
// string slices, so equality on the hot paths (dedup, join build/probe,
// semijoin membership) is integer comparison and never touches string
// bytes. IDs are assigned in first-intern order and never change, which
// keeps every derived encoding deterministic for a fixed input order.
//
// A Dict is safe for concurrent use: the parallel partitioned join and
// the prewarm worker pool may intern and resolve through a shared Dict.
// Reads take the read lock only; the vals slab is append-only, so a
// snapshot taken under the read lock stays valid forever.
//
// Dicts are shareable at whatever granularity the caller wants. New
// relations default to a process-wide dictionary (so independently
// built relations join without translation); the database loaders
// allocate one Dict per loaded database so a dropped database releases
// its interned strings. Operations between relations carrying different
// Dicts translate through the value space and stay correct, just
// slower.
type Dict struct {
	mu   sync.RWMutex
	ids  map[Value]uint32
	vals []Value
}

// NewDict creates an empty interning dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[Value]uint32)}
}

// sharedDict is the process-wide default dictionary used by relations
// constructed without an explicit Dict.
var sharedDict = NewDict()

// ID interns v, returning its dense ID (allocating the next one on
// first sight).
func (d *Dict) ID(v Value) uint32 {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[v]; ok {
		return id
	}
	return d.add(v)
}

// add issues the next ID to v, which must not be interned yet. The
// caller holds the write lock.
func (d *Dict) add(v Value) uint32 {
	if uint64(len(d.vals)) == 1<<32 {
		panic("relation: dictionary overflow: 2^32 distinct values interned")
	}
	id := uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[v] = id
	return id
}

// internBytes interns vals[order[0]], vals[order[1]], … in that order
// under one lock, writing the IDs to ids. A value interned before costs
// one map probe and no allocation; a new one is copied into a fresh
// Value, so the caller may reuse the bytes.
func (d *Dict) internBytes(vals [][]byte, order []int, ids []uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range order {
		id, ok := d.ids[Value(vals[p])]
		if !ok {
			id = d.add(Value(vals[p]))
		}
		ids[i] = id
	}
}

// Lookup reports v's ID without interning it. The second result is
// false when v has never been interned — for membership probes that
// means no row can contain it.
func (d *Dict) Lookup(v Value) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	return id, ok
}

// Value resolves an ID back to its Value. It panics on an ID the
// dictionary never issued.
func (d *Dict) Value(id uint32) Value {
	d.mu.RLock()
	vals := d.vals
	d.mu.RUnlock()
	if int(id) >= len(vals) {
		panic("relation: dictionary ID out of range")
	}
	return vals[id]
}

// Len reports how many distinct values have been interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// snapshot returns a read-only view of the ID→Value table, valid for
// all IDs issued before the call. Decoding loops take one snapshot and
// index it directly instead of paying a lock per value.
func (d *Dict) snapshot() []Value {
	d.mu.RLock()
	vals := d.vals
	d.mu.RUnlock()
	return vals
}
