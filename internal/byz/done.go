package byz

import "oceanstore/internal/guid"

// doneIndex is a replica's bounded done-set: the last doneWindow
// request IDs it executed, each held once, in a ring in execution
// order, with the sequence number each executed at beside it.  An
// open-addressed table of ring positions answers lookups, so the IDs
// are not repeated in a map beside the ring.  The table is a power of
// two at least twice the ring's length and grows with it, so a tier
// that executed a handful of requests keeps a handful of slots.
//
// Request IDs are SHA-1 digests, so an ID's leading bytes are its home
// slot.  A crafted ID can only collide: probing stops at an empty slot
// and the table is at most half full, so one lookup costs at most one
// scan of the window.
type doneIndex struct {
	ids  []guid.GUID
	seqs []uint64
	// head is the oldest position once the ring is full, and the next
	// one added overwrites it.
	head int
	// slots holds ring position + 1, or 0 for an empty slot.  Positions
	// are below doneWindow, so a uint16 holds one.
	slots []uint16
}

// doneSlots is the table's smallest size.
const doneSlots = 4

// doneHome is id's home slot in a table of mask+1 slots: the ID's
// leading bytes.
func doneHome(id guid.GUID, mask int) int { return int(id.Uint64()) & mask }

// get returns the sequence number id executed at, and whether id is
// held.
func (d *doneIndex) get(id guid.GUID) (uint64, bool) {
	if i, ok := d.find(id); ok {
		return d.seqs[d.slots[i]-1], true
	}
	return 0, false
}

// has reports whether id is held.
func (d *doneIndex) has(id guid.GUID) bool {
	_, ok := d.find(id)
	return ok
}

// find returns id's slot if it is held, and otherwise the empty slot
// its probe ended at.
func (d *doneIndex) find(id guid.GUID) (int, bool) {
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

// add records id, which must not be held, with the sequence number it
// executed at.  Once the ring holds doneWindow IDs the oldest leaves to
// make room; add returns it.
func (d *doneIndex) add(id guid.GUID, seq uint64) (old guid.GUID, evicted bool) {
	if len(d.ids) < doneWindow {
		d.ids, d.seqs = append(d.ids, id), append(d.seqs, seq)
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
	d.ids[d.head], d.seqs[d.head] = id, seq
	i, _ = d.find(id)
	d.slots[i] = uint16(d.head + 1)
	d.head = (d.head + 1) % doneWindow
	return old, true
}

// grow doubles the table (or makes the first) and re-enters every ring
// position.
func (d *doneIndex) grow() {
	d.slots = make([]uint16, max(doneSlots, 2*len(d.slots)))
	for p, id := range d.ids {
		i, _ := d.find(id)
		d.slots[i] = uint16(p + 1)
	}
}

// remove empties slot i by backward-shift deletion: each later entry
// of the probe run that may sit at the hole moves into it, so no
// tombstone is left and every probe still ends at the first empty slot.
func (d *doneIndex) remove(i int) {
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
