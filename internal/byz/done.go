package byz

import "oceanstore/internal/guid"

// doneIndex is a replica's bounded done-set: the last doneWindow
// request IDs it executed, in a ring in execution order, with the
// sequence number each executed at beside it.  Every sequence number
// takes one ring position, so seq's is seq mod doneWindow; a null
// request (the zero ID) and a request skipped as a duplicate take theirs
// too.  An open-addressed table of ring positions answers lookups by ID
// for the rest, each ID held once, so the IDs are not repeated in a map
// beside the ring.  The table is a power of
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

// add records that id executed at seq, the sequence number after the
// last one added; with indexed, id must not be held, and lookups find
// it.  Once the ring is full the oldest entry leaves; add returns its ID
// if lookups found it.
func (d *doneIndex) add(id guid.GUID, seq uint64, indexed bool) (old guid.GUID, evicted bool) {
	if len(d.ids) < doneWindow {
		d.ids, d.seqs = append(d.ids, id), append(d.seqs, seq)
		if 2*len(d.ids) > len(d.slots) {
			d.grow()
		} else if indexed {
			i, _ := d.find(id)
			d.slots[i] = uint16(len(d.ids))
		}
		return old, false
	}
	old, evicted = d.ids[d.head], d.unindex(d.head)
	d.ids[d.head], d.seqs[d.head] = id, seq
	if indexed {
		i, _ := d.find(id)
		d.slots[i] = uint16(d.head + 1)
	}
	d.head = (d.head + 1) % doneWindow
	return old, evicted
}

// unindex takes ring position p out of the table, if the table points
// at it, and reports whether it did.
func (d *doneIndex) unindex(p int) bool {
	i, ok := d.find(d.ids[p])
	if !ok || int(d.slots[i]) != p+1 {
		return false
	}
	d.remove(i)
	return true
}

// at returns the ID that executed at seq, if the ring still holds it.
func (d *doneIndex) at(seq uint64) (guid.GUID, bool) {
	p := int(seq % doneWindow)
	if p < len(d.seqs) && d.seqs[p] == seq {
		return d.ids[p], true
	}
	return guid.GUID{}, false
}

// grow doubles the table (or makes the first) and re-enters every ring
// position lookups find (a duplicate's first execution holds its slot).
func (d *doneIndex) grow() {
	d.slots = make([]uint16, max(doneSlots, 2*len(d.slots)))
	for p, id := range d.ids {
		if i, held := d.find(id); !held && id != guid.Zero {
			d.slots[i] = uint16(p + 1)
		}
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
