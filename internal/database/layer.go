package database

// Copy-on-write layers: the store an evaluation writes into when its
// input must stay untouched. A layer shares every relation of its base
// by pointer-level aliasing — slabs, dedup set, count column and
// persistent indexes — and pays for a private copy of a relation only
// when that relation is written. Reading a served store through a layer
// therefore costs O(relations), not O(facts), and a query running under
// the server's read lock never writes the served store.
//
// Each base relation gets a private Relation header in the layer
// (layer below), so everything that lives in the header — counters,
// scratch rows, the string cache, the index map — is already the
// layer's own. What stays shared until the first write is the storage
// the header points at:
//
//   - Index builds need no copy: a new index is built from the shared
//     slabs into the layer's own index map, and is owned by the layer
//     relation (relIndex.owner).
//   - Every mutator (AddRow and everything above it, EnableCounts,
//     AddCountAt, DeleteRows) first calls own, which copies the slabs,
//     dedup set and count column, and deep-copies every index the layer
//     relation does not own. Row IDs are preserved, so the indexes the
//     layer built on the shared slabs stay valid.
//
// Because the copy happens inside the Relation, a *Relation obtained
// from a layer stays valid across it: plans holding relation pointers
// see the layer's writes whether or not a copy happened in between.
//
// The base must not be mutated while a layer over it is in use; callers
// that keep a layer past that point call Own first.

// Layer returns a copy-on-write layer over d: a database holding the
// same facts whose writes never reach d. See the comment above for
// what is shared and when a relation is copied. Layer itself only reads
// d, so concurrent Layer calls (and evaluations over the layers) may
// share one d as long as nothing mutates it.
func (d *DB) Layer() *DB {
	out := &DB{relations: make(map[string]*Relation, len(d.relations))}
	for p, r := range d.relations {
		out.relations[p] = r.layer()
	}
	return out
}

// Own gives every relation of d private storage: after it returns, d
// shares nothing with the database it was layered over, which may then
// be mutated or discarded freely. On a database that is not a layer it
// does nothing.
func (d *DB) Own() {
	for _, r := range d.relations {
		r.own()
	}
}

// layer returns a relation header over r's storage. Slices are capped
// at their length, so even an append that bypassed own would reallocate
// rather than write into r's arrays.
func (r *Relation) layer() *Relation {
	out := &Relation{arity: r.arity, n: r.n, cols: make([][]uint32, len(r.cols)), set: r.set, borrowed: true}
	for c, col := range r.cols {
		out.cols[c] = col[:len(col):len(col)]
	}
	out.set.hashes = r.set.hashes[:len(r.set.hashes):len(r.set.hashes)]
	if r.counts != nil {
		out.counts = r.counts[:len(r.counts):len(r.counts)]
	}
	if len(r.indexes) > 0 {
		out.indexes = make(map[uint64]*relIndex, len(r.indexes))
		for m, idx := range r.indexes {
			out.indexes[m] = idx
		}
	}
	return out
}

// own copies whatever storage r still borrows from the relation it was
// layered over. It is the first step of every mutator.
func (r *Relation) own() {
	if !r.borrowed {
		return
	}
	for c := range r.cols {
		r.cols[c] = append([]uint32(nil), r.cols[c]...)
	}
	r.set = rowSet{
		table:  append([]int32(nil), r.set.table...),
		hashes: append([]uint64(nil), r.set.hashes...),
		n:      r.set.n,
	}
	if r.counts != nil {
		r.counts = append([]int32(nil), r.counts...)
	}
	for m, idx := range r.indexes {
		if idx.owner != r {
			r.indexes[m] = idx.clone(r)
		}
	}
	r.borrowed = false
}

// clone deep-copies the index for owner. All posting lists share one
// backing array, each capped at its length, so a later append to one
// list reallocates that list alone.
func (idx *relIndex) clone(owner *Relation) *relIndex {
	out := &relIndex{
		cols:    idx.cols,
		owner:   owner,
		table:   append([]int32(nil), idx.table...),
		entries: make([]idxEntry, len(idx.entries)),
	}
	total := 0
	for _, e := range idx.entries {
		total += len(e.rows)
	}
	rows := make([]int32, 0, total)
	for i, e := range idx.entries {
		lo := len(rows)
		rows = append(rows, e.rows...)
		out.entries[i] = idxEntry{hash: e.hash, rows: rows[lo:len(rows):len(rows)]}
	}
	return out
}
