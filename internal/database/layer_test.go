package database

import (
	"fmt"
	"reflect"
	"testing"
)

// layerBase is a base database with e(a, b), e(b, c), e(c, d) and a
// persistent index on e's first column.
func layerBase(t *testing.T) *DB {
	t.Helper()
	d := New()
	for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		d.Add("e", Tuple{p[0], p[1]})
	}
	d.Lookup("e").EnsureIndex(1)
	return d
}

// probe returns the rows of rel whose column-mask key equals key,
// through the index, failing if the index is missing.
func probe(t *testing.T, rel *Relation, mask uint64, key ...string) []int32 {
	t.Helper()
	row := make(Row, len(key))
	for i, k := range key {
		row[i] = Intern(k)
	}
	rows, ok := rel.Probe(mask, row, 0, rel.Len())
	if !ok {
		t.Fatalf("no index on mask %#b", mask)
	}
	return append([]int32(nil), rows...)
}

// baseState captures everything a layer must never change in its base.
type baseState struct {
	facts  string
	masks  []uint64
	epoch  uint64
	probeA []int32
	stats  StorageStats
}

func captureBase(t *testing.T, d *DB) baseState {
	t.Helper()
	e := d.Lookup("e")
	return baseState{
		facts:  d.String(),
		masks:  e.IndexMasks(),
		epoch:  d.StatsEpoch(),
		probeA: probe(t, e, 1, "a"),
		stats:  d.StorageStats(),
	}
}

func TestLayerSharesUntilWrite(t *testing.T) {
	base := layerBase(t)
	before := captureBase(t, base)
	l := base.Layer()

	e := l.Lookup("e")
	if e == base.Lookup("e") {
		t.Fatal("layer must give each relation its own header")
	}
	if !e.HasIndex(1) || l.StatsEpoch() != base.StatsEpoch() {
		t.Error("layer must see the base's indexes")
	}
	if st := l.StorageStats(); st.SlabBytes != 0 || st.IndexBuilds != 0 || st.Rows != 3 {
		t.Errorf("unwritten layer stats = %+v, want shared slabs and no builds", st)
	}

	// An index the base lacks is built into the layer only.
	e.EnsureIndex(2)
	if got := probe(t, e, 2, "c"); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("layer probe on new index = %v", got)
	}
	if st := l.StorageStats(); st.IndexBuilds != 1 || st.SlabBytes != 0 {
		t.Errorf("after index build: %+v, want 1 build and still no owned slabs", st)
	}
	if !reflect.DeepEqual(captureBase(t, base), before) {
		t.Fatal("index build in the layer changed the base")
	}

	// The first write copies; the base keeps its facts and postings.
	if !l.Add("e", Tuple{"a", "z"}) || l.Add("e", Tuple{"a", "b"}) {
		t.Fatal("layer Add: new row not new, or old row new")
	}
	if l.Lookup("e") != e {
		t.Error("a write must not replace the relation header")
	}
	if got := probe(t, e, 1, "a"); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Errorf("layer postings for a = %v, want [0 3]", got)
	}
	if got := probe(t, e, 2, "z"); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("layer-built index not maintained after the copy: %v", got)
	}
	if st := l.StorageStats(); st.SlabBytes == 0 || st.IndexAppends != 2 {
		t.Errorf("written layer stats = %+v, want owned slabs and 2 appends", st)
	}
	if !reflect.DeepEqual(captureBase(t, base), before) {
		t.Fatal("layer write changed the base")
	}
	if !l.Contains("e", Tuple{"a", "z"}) || base.Contains("e", Tuple{"a", "z"}) {
		t.Error("the new fact must be in the layer only")
	}

	// New relations live in the layer only.
	l.Add("p", Tuple{"x"})
	if base.Lookup("p") != nil {
		t.Error("relation created in the layer leaked into the base")
	}
}

func TestLayerMutatorsCopyFirst(t *testing.T) {
	cases := map[string]func(r *Relation){
		"DeleteRows": func(r *Relation) { r.DeleteRows(func(i int) bool { return i == 0 }) },
		"EnableCounts": func(r *Relation) {
			r.EnableCounts()
			r.AddCountAt(1, 5)
		},
		"AddRow": func(r *Relation) { r.AddRow(Row{Intern("q"), Intern("r")}) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			base := layerBase(t)
			base.Lookup("e").EnableCounts()
			base.Lookup("e").AddCountAt(1, 1)
			before := captureBase(t, base)
			l := base.Layer()
			mutate(l.Lookup("e"))
			if !reflect.DeepEqual(captureBase(t, base), before) {
				t.Fatal("mutating the layer changed the base")
			}
			if got := base.Lookup("e").CountAt(1); got != 1 {
				t.Errorf("base count = %d, want 1", got)
			}
		})
	}
}

// TestLayerOverLayer pins nested layers: a middle layer that writes
// first must not let the top layer mutate the base's indexes later.
func TestLayerOverLayer(t *testing.T) {
	base := layerBase(t)
	before := captureBase(t, base)
	mid := base.Layer()
	top := mid.Layer()
	mid.Add("e", Tuple{"a", "m"})
	top.Add("e", Tuple{"a", "t"})
	if !reflect.DeepEqual(captureBase(t, base), before) {
		t.Fatal("nested layer writes changed the base")
	}
	if mid.Contains("e", Tuple{"a", "t"}) || !mid.Contains("e", Tuple{"a", "m"}) {
		t.Error("middle layer must see its own write and not the top's")
	}
	if top.Contains("e", Tuple{"a", "m"}) {
		t.Error("top layer was made before the middle's write and must not see it")
	}
	if got := probe(t, mid.Lookup("e"), 1, "a"); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Errorf("middle postings for a = %v, want [0 3]", got)
	}
	if got := probe(t, top.Lookup("e"), 1, "a"); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Errorf("top postings for a = %v, want [0 3]", got)
	}
}

func TestLayerOwnDetaches(t *testing.T) {
	base := layerBase(t)
	l := base.Layer()
	l.Lookup("e").EnsureIndex(2)
	want := l.String()
	l.Own()
	if st := l.StorageStats(); st.SlabBytes == 0 {
		t.Error("Own must give the layer its own slabs")
	}
	// The base is now free to change underneath.
	base.Lookup("e").DeleteRows(func(i int) bool { return i < 2 })
	base.Add("e", Tuple{"x", "y"})
	if l.String() != want {
		t.Errorf("owned layer changed with its base:\n%s\nwant\n%s", l, want)
	}
	if got := probe(t, l.Lookup("e"), 1, "b"); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("owned layer postings for b = %v, want [1]", got)
	}
	if !l.Lookup("e").HasIndex(2) || !l.Lookup("e").HasIndex(1) {
		t.Error("Own must keep every index the layer saw")
	}
}

func TestDomainIDsAscendingWithExtras(t *testing.T) {
	d := New()
	var want []uint32
	for i := 0; i < 5; i++ {
		id := Intern(fmt.Sprintf("dom%d", i))
		d.AddRow("r", Row{id, id})
		want = append(want, id)
	}
	extra := Intern("dom-extra")
	want = append(want, extra)
	got := d.DomainIDs(extra, want[0])
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DomainIDs = %v, want %v (ascending, each once)", got, want)
	}
}
