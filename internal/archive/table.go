package archive

import (
	"cmp"
	"slices"

	"oceanstore/internal/guid"
)

// Table is the fragment index every Store backend keeps: values keyed
// by (archive root, fragment index) in one slice sorted by key.  The
// in-memory NodeStore keeps fragment bodies in it and the disk backend
// keeps record offsets.  A server holds a fragment or two of each of
// many archives, so a map per root would cost a whole map group per
// fragment; a row costs its key and value.  Lookups are binary
// searches, Walk is a plain walk in exactly the order Store.Scan
// promises, and an insert or delete shifts the rows behind it — cheap
// at the few hundred fragments a server holds.  The zero Table is
// empty and ready to use.
type Table[V any] struct {
	rows []tableRow[V]
}

type tableRow[V any] struct {
	root  guid.GUID
	index int
	val   V
}

// search returns where (root, index) sits, or would be inserted, and
// whether it is held.
func (t *Table[V]) search(root guid.GUID, index int) (int, bool) {
	return slices.BinarySearchFunc(t.rows, root, func(r tableRow[V], _ guid.GUID) int {
		if c := r.root.Compare(root); c != 0 {
			return c
		}
		return cmp.Compare(r.index, index)
	})
}

// Get returns the value held at (root, index), or nil.  The pointer is
// good until the next Set or Delete.
func (t *Table[V]) Get(root guid.GUID, index int) *V {
	if i, ok := t.search(root, index); ok {
		return &t.rows[i].val
	}
	return nil
}

// Set holds v at (root, index) and returns the value it replaced, if
// there was one.
func (t *Table[V]) Set(root guid.GUID, index int, v V) (old V, replaced bool) {
	i, ok := t.search(root, index)
	if ok {
		old, t.rows[i].val = t.rows[i].val, v
		return old, true
	}
	t.rows = slices.Insert(t.rows, i, tableRow[V]{root, index, v})
	return old, false
}

// Delete forgets (root, index) and returns the value it held, if any.
func (t *Table[V]) Delete(root guid.GUID, index int) (old V, held bool) {
	i, ok := t.search(root, index)
	if !ok {
		return old, false
	}
	old = t.rows[i].val
	t.rows = slices.Delete(t.rows, i, i+1)
	return old, true
}

// Walk visits every row in (root GUID, index) order until fn returns
// false.  fn must not Set or Delete.
func (t *Table[V]) Walk(fn func(root guid.GUID, index int, v *V) bool) {
	for i := range t.rows {
		if !fn(t.rows[i].root, t.rows[i].index, &t.rows[i].val) {
			return
		}
	}
}

// Len reports how many rows the table holds.
func (t *Table[V]) Len() int { return len(t.rows) }
