package relation

//joinlint:hotpath

// IDCount is one bucket of a column histogram: a dictionary ID and the
// number of rows holding it.
type IDCount struct {
	ID    uint32
	Count uint32
}

// Tally computes the one per-column statistic the plan-cache
// fingerprint and the estimate catalogs read: a column's histogram over
// dictionary IDs. It counts in an array indexed by ID and never decodes
// a value to a string. The array costs four bytes per interned value,
// far less than the dictionary itself holds per value, and a Tally
// keeps it between calls, so tallying every column of a database
// allocates a handful of times, not once per column. The zero value is
// ready to use. A Tally is not safe for concurrent use.
type Tally struct {
	counts  []uint32 // indexed by dictionary ID; all zero between calls
	buckets []IDCount
}

// Column returns the histogram of r's column col (an index into
// Schema().Attrs()): one bucket per distinct value, in the order the
// values first occur. Its length is the column's distinct-value count.
// The result is valid until the next call.
func (t *Tally) Column(r *Relation, col int) []IDCount {
	w := r.schema.Len()
	if col < 0 || col >= w {
		panic("relation: Tally column out of range")
	}
	if n := r.dict.Len(); len(t.counts) < n {
		t.counts = make([]uint32, n)
	}
	for i := col; i < len(r.data); i += w {
		t.counts[r.data[i]]++
	}
	t.buckets = t.buckets[:0]
	for i := col; i < len(r.data); i += w {
		if id := r.data[i]; t.counts[id] > 0 {
			t.buckets = append(t.buckets, IDCount{ID: id, Count: t.counts[id]})
			t.counts[id] = 0
		}
	}
	return t.buckets
}
