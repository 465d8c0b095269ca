package metric

import "testing"

// Row writes into materialized slabs keep the metric hot loops
// allocation-free; pin them.

func TestAddHitAllocs(t *testing.T) {
	v := newRows(1)[0]
	v.Add(0, 1)
	if n := testing.AllocsPerRun(1000, func() { v.Add(0, 1) }); n != 0 {
		t.Errorf("Add to existing column allocates %v/op, want 0", n)
	}
}

// Rows claimed after a slab was sized write into its spare capacity.
func TestAddAppendWithinCapacityAllocs(t *testing.T) {
	s := NewStore()
	v := NewView(s, PlaneBase, s.AddRow())
	v.Add(0, 1) // first write sizes the slab to its minimum capacity
	if n := testing.AllocsPerRun(32, func() {
		w := NewView(s, PlaneBase, s.AddRow())
		w.Add(0, 1)
	}); n != 0 {
		t.Errorf("Add to a new row within capacity allocates %v/op, want 0", n)
	}
}

func TestAddVectorAlignedAllocs(t *testing.T) {
	rows := newRows(2)
	v, o := rows[0], rows[1]
	o.Add(0, 1)
	o.Add(3, 2)
	v.AddView(&o)
	if n := testing.AllocsPerRun(1000, func() { v.AddView(&o) }); n != 0 {
		t.Errorf("AddView over identical column sets allocates %v/op, want 0", n)
	}
}

func TestAddVectorDisjointAppendAllocs(t *testing.T) {
	rows := newRows(3)
	v, o, w := rows[0], rows[1], rows[2]
	v.Add(0, 1)
	o.Add(1, 1)
	w.Add(1, 1) // materializes column 1 over v's row too
	// v holds only column 0 and o only column 1; adding o into v fills a
	// cell the slab already covers.
	if n := testing.AllocsPerRun(1000, func() {
		v.Set(1, 0)
		v.AddView(&o)
	}); n != 0 {
		t.Errorf("AddView of a disjoint column allocates %v/op, want 0", n)
	}
}

func TestAddVectorIntoEmptySingleCopy(t *testing.T) {
	rows := newRows(2)
	v, o := rows[0], rows[1]
	o.Add(0, 1)
	o.Add(5, 2)
	// Copying a row into a blank row of the same store reuses the slabs.
	if n := testing.AllocsPerRun(1000, func() {
		v.Reset()
		v.AddView(&o)
	}); n != 0 {
		t.Errorf("AddView into a blank row allocates %v/op, want 0", n)
	}
}
