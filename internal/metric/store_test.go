package metric

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// A View is a scope's sparse metric vector: these tests pin the sparse
// semantics (blank zeros, ascending Range, no negative zero) and the
// copy-on-write guard over borrowed slabs.

// newRows returns n views onto fresh rows of one plane of a new store.
func newRows(n int) []View {
	s := NewStore()
	vs := make([]View, n)
	for i := range vs {
		vs[i] = NewView(s, PlaneBase, s.AddRow())
	}
	return vs
}

func TestVectorBasics(t *testing.T) {
	v := newRows(1)[0]
	if v.Len() != 0 || v.Get(3) != 0 {
		t.Fatal("fresh row is not blank")
	}
	v.Set(3, 1.5)
	v.Set(1, 2)
	v.Add(3, 0.5)
	if got := v.Get(3); got != 2 {
		t.Fatalf("Get(3) = %g, want 2", got)
	}
	if got := v.Get(1); got != 2 {
		t.Fatalf("Get(1) = %g, want 2", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	// An Add that cancels blanks the cell.
	v.Add(1, -2)
	if v.Len() != 1 || v.Get(1) != 0 {
		t.Fatalf("cancelled cell still counted: %v", v.String())
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("row not blank after Reset: %v", v.String())
	}
}

func TestViewZeroWriteClears(t *testing.T) {
	v := newRows(1)[0]
	v.Set(3, 4)
	v.Set(3, 0)
	if v.Get(3) != 0 || v.Len() != 0 {
		t.Fatalf("zero write left the cell set: %v", v.String())
	}
	n := 0
	v.Range(func(int, float64) { n++ })
	if n != 0 {
		t.Fatalf("Range visited %d cells of a blank row", n)
	}
}

func TestViewNeverStoresNegativeZero(t *testing.T) {
	v := newRows(1)[0]
	v.Set(0, 5)
	v.Set(0, math.Copysign(0, -1))
	v.Set(1, math.Copysign(0, -1))
	for col := 0; col < 2; col++ {
		if x := v.Get(col); math.Signbit(x) {
			t.Fatalf("column %d holds -0", col)
		}
	}
	for col := 0; col < v.s.NumCols(PlaneBase); col++ {
		for _, x := range v.s.ColRead(PlaneBase, col) {
			if x == 0 && math.Signbit(x) {
				t.Fatalf("slab %d holds -0", col)
			}
		}
	}
}

func TestVectorRangeOrdered(t *testing.T) {
	v := newRows(1)[0]
	for _, id := range []int{9, 2, 5, 0, 7} {
		v.Set(id, float64(id)+0.5)
	}
	var ids []int
	v.Range(func(id int, x float64) {
		ids = append(ids, id)
		if x != float64(id)+0.5 {
			t.Fatalf("value mismatch at %d: %g", id, x)
		}
	})
	if !sort.IntsAreSorted(ids) || len(ids) != 5 {
		t.Fatalf("Range not in ascending order: %v", ids)
	}
}

func TestVectorAddVector(t *testing.T) {
	rows := newRows(2)
	a, b := rows[0], rows[1]
	a.Set(0, 1)
	a.Set(2, 3)
	b.Set(1, 10)
	b.Set(2, -3) // cancels a's entry
	b.Set(5, 7)
	a.AddView(&b)
	want := map[int]float64{0: 1, 1: 10, 5: 7}
	got := map[int]float64{}
	a.Range(func(id int, x float64) { got[id] = x })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AddView = %v, want %v", got, want)
	}
}

func TestVectorAddVectorIntoEmpty(t *testing.T) {
	a := newRows(1)[0]
	b := newRows(1)[0] // a row of another store
	b.Set(4, 2)
	a.AddView(&b)
	if a.Get(4) != 2 {
		t.Fatal("AddView into a blank row failed")
	}
	b.Set(4, 99)
	if a.Get(4) != 2 {
		t.Fatal("AddView aliased the source")
	}
}

// A row copied into a blank row with AddView is independent of its source,
// in either direction.
func TestVectorClone(t *testing.T) {
	rows := newRows(2)
	v, c := rows[0], rows[1]
	v.Set(1, 2)
	c.AddView(&v)
	c.Set(1, 5)
	if v.Get(1) != 2 {
		t.Fatal("copy aliases its source")
	}
	v.Set(1, 7)
	if c.Get(1) != 5 {
		t.Fatal("source write reached the copy")
	}
	blank := newRows(1)[0]
	c.Reset()
	c.AddView(&blank)
	if c.Len() != 0 {
		t.Fatal("copy of a blank row is not blank")
	}
}

// Property: a View agrees with a reference map under a random sequence of
// Set/Add over several rows of one store.
func TestVectorMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := newRows(3)
		models := make([]map[int]float64, len(rows))
		for i := range models {
			models[i] = map[int]float64{}
		}
		for i := 0; i < 300; i++ {
			r := rng.Intn(len(rows))
			v, model := &rows[r], models[r]
			id := rng.Intn(12)
			x := float64(rng.Intn(7) - 3)
			if rng.Intn(2) == 0 {
				v.Set(id, x)
				if x == 0 {
					delete(model, id)
				} else {
					model[id] = x
				}
			} else {
				v.Add(id, x)
				if model[id]+x == 0 {
					delete(model, id)
				} else {
					model[id] += x
				}
			}
		}
		for r := range rows {
			v, model := &rows[r], models[r]
			if v.Len() != len(model) {
				return false
			}
			for id := 0; id < 12; id++ {
				if v.Get(id) != model[id] {
					return false
				}
			}
			// Range visits exactly the non-zero cells, ascending.
			prev, seen, ok := -1, 0, true
			v.Range(func(id int, x float64) {
				if id <= prev || x == 0 || model[id] != x {
					ok = false
				}
				prev = id
				seen++
			})
			if !ok || seen != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AddView is element-wise addition.
func TestVectorAddVectorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := newRows(2)
		a, b := rows[0], rows[1]
		want := map[int]float64{}
		for i := 0; i < 50; i++ {
			id, x := rng.Intn(20), float64(rng.Intn(9)-4)
			a.Add(id, x)
			want[id] += x
		}
		for i := 0; i < 50; i++ {
			id, x := rng.Intn(20), float64(rng.Intn(9)-4)
			b.Add(id, x)
			want[id] += x
		}
		a.AddView(&b)
		for id := 0; id < 20; id++ {
			if a.Get(id) != want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Writes through a view never reach an adopted borrowed slab: Set, Add and
// Reset each detach the column (copy-on-write) before writing.
func TestViewBorrowedCopyOnWrite(t *testing.T) {
	writes := map[string]func(v *View){
		"Set":   func(v *View) { v.Set(0, 42) },
		"Add":   func(v *View) { v.Add(0, 1) },
		"Reset": func(v *View) { v.Reset() },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			s := NewStore()
			for i := 0; i < 3; i++ {
				s.AddRow()
			}
			foreign := []float64{1, 2, 3}
			s.AdoptCol(PlaneIncl, 0, foreign, true)
			v := NewView(s, PlaneIncl, 1)
			if v.Get(0) != 2 {
				t.Fatalf("borrowed read = %g, want 2", v.Get(0))
			}
			write(&v)
			if !reflect.DeepEqual(foreign, []float64{1, 2, 3}) {
				t.Fatalf("%s wrote through a borrowed slab: %v", name, foreign)
			}
			if s.Borrowed(PlaneIncl, 0) {
				t.Fatalf("%s left the column borrowed", name)
			}
			// The detached copy keeps the other rows.
			other := NewView(s, PlaneIncl, 2)
			if got := other.Get(0); got != 3 {
				t.Fatalf("row 2 after %s = %g, want 3", name, got)
			}
		})
	}
}
