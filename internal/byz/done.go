package byz

// doneIndex is a bounded done-set: the last doneWindow keys added, each
// held once, in a ring in the order they were added, with a value
// beside each (a replica keeps a request ID and the sequence number it
// executed at; the tier keeps a client's request and nothing else).  An open-addressed table of
// ring positions answers lookups, so the IDs are not repeated in a map
// beside the ring.  The table is a power of two at least twice the
// ring's length and grows with it, so a tier that executed a handful
// of requests keeps a handful of slots.
//
// Request IDs are SHA-1 digests, so an ID's leading bytes are its home
// slot.  A crafted ID can only collide: probing stops at an empty slot
// and the table is at most half full, so one lookup costs at most one
// scan of the window.
type doneIndex[K doneKey, V any] struct {
	ids  []K
	vals []V
	// head is the oldest position once the ring is full, and the next
	// one added overwrites it.
	head int
	// slots holds ring position + 1, or 0 for an empty slot.  Positions
	// are below doneWindow, so a uint16 holds one.
	slots []uint16
}

// doneKey is what a doneIndex holds: a request ID, or one naming the
// request's client too.  Uint64 reads the ID's leading bytes.
type doneKey interface {
	comparable
	Uint64() uint64
}

// doneSlots is the table's smallest size.
const doneSlots = 4

// doneHome is id's home slot in a table of mask+1 slots.
func doneHome[K doneKey](id K, mask int) int { return int(id.Uint64()) & mask }

// get returns the value held with id, and whether id is held.
func (d *doneIndex[K, V]) get(id K) (V, bool) {
	if i, ok := d.find(id); ok {
		return d.vals[d.slots[i]-1], true
	}
	var zero V
	return zero, false
}

// has reports whether id is held.
func (d *doneIndex[K, V]) has(id K) bool {
	_, ok := d.find(id)
	return ok
}

// find returns id's slot if it is held, and otherwise the empty slot
// its probe ended at.
func (d *doneIndex[K, V]) find(id K) (int, bool) {
	mask := len(d.slots) - 1
	if mask < 0 {
		return 0, false
	}
	for i := doneHome(id, mask); ; i = (i + 1) & mask {
		p := d.slots[i]
		if p == 0 {
			return i, false
		}
		if d.ids[p-1] == id {
			return i, true
		}
	}
}

// add records id, which must not be held, with v.  Once the ring holds
// doneWindow IDs the oldest leaves to make room; add returns it.
func (d *doneIndex[K, V]) add(id K, v V) (old K, evicted bool) {
	if len(d.ids) < doneWindow {
		d.ids, d.vals = append(d.ids, id), append(d.vals, v)
		if 2*len(d.ids) > len(d.slots) {
			d.grow()
		} else {
			i, _ := d.find(id)
			d.slots[i] = uint16(len(d.ids))
		}
		return old, false
	}
	old = d.ids[d.head]
	i, _ := d.find(old)
	d.remove(i)
	d.ids[d.head], d.vals[d.head] = id, v
	i, _ = d.find(id)
	d.slots[i] = uint16(d.head + 1)
	d.head = (d.head + 1) % doneWindow
	return old, true
}

// grow doubles the table (or makes the first) and re-enters every ring
// position.
func (d *doneIndex[K, V]) grow() {
	d.slots = make([]uint16, max(doneSlots, 2*len(d.slots)))
	for p, id := range d.ids {
		i, _ := d.find(id)
		d.slots[i] = uint16(p + 1)
	}
}

// remove empties slot i by backward-shift deletion: each later entry
// of the probe run that may sit at the hole moves into it, so no
// tombstone is left and every probe still ends at the first empty slot.
func (d *doneIndex[K, V]) remove(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home lies
		// cyclically in (i, j].
		if home := doneHome(d.ids[d.slots[j]-1], mask); (j-home)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
}
