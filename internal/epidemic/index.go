package epidemic

import "oceanstore/internal/update"

// A replica's index finds an update in its committed log window by ID
// without holding the ID: an open-addressed table of window offsets
// (log position − Log.Start() + 1, 0 for an empty slot), whose probe
// compares the ID of the entry a slot points at.  The window is the one
// copy of its IDs, and the index adds 2–4 bytes an entry.  The table is
// a power of two at least twice the window's length and grows with it;
// a trim or an adoption moves Log.Start() and rebuilds it.  Tentative
// updates are not in it: the tentative set is small, and Seen scans it.

// indexSlots is the table's smallest size.
const indexSlots = 8

// indexHome is id's home slot in a table of mask+1 slots.  Updates from
// one client share ClientID and differ in Seq, so the two are mixed
// (Fibonacci hashing) rather than read off the leading bytes.
func indexHome(id update.UpdateID, mask int) int {
	return int((id.Client.Uint64()^id.Seq)*0x9e3779b97f4a7c15>>32) & mask
}

// find returns id's slot if the window holds it, and otherwise the
// empty slot its probe ended at.
func (r *Replica) find(id update.UpdateID) (int, bool) {
	mask := len(r.index) - 1
	if mask < 0 {
		return 0, false
	}
	es := r.Log.Entries()
	for i := indexHome(id, mask); ; i = (i + 1) & mask {
		p := r.index[i]
		if p == 0 {
			return i, false
		}
		if es[p-1].ID() == id {
			return i, true
		}
	}
}

// logged returns the log position at which the window holds id.
func (r *Replica) logged(id update.UpdateID) (int, bool) {
	i, ok := r.find(id)
	if !ok {
		return 0, false
	}
	return r.Log.Start() + int(r.index[i]) - 1, true
}

// indexLast enters the entry just appended to the log.
func (r *Replica) indexLast() {
	es := r.Log.Entries()
	if 2*len(es) > len(r.index) {
		r.reindexLog(max(indexSlots, 2*len(r.index)))
		return
	}
	i, _ := r.find(es[len(es)-1].ID())
	r.index[i] = uint16(len(es))
}

// reindexLog rebuilds the index over the log window in a table of at
// least size slots, large enough for the window.
func (r *Replica) reindexLog(size int) {
	es := r.Log.Entries()
	for size < 2*len(es) {
		size *= 2
	}
	if len(r.index) >= size {
		clear(r.index)
	} else {
		r.index = make([]uint16, size)
	}
	for p, e := range es {
		i, _ := r.find(e.ID())
		r.index[i] = uint16(p + 1)
	}
}

// tentativeHas reports whether id is in the tentative set.
func (r *Replica) tentativeHas(id update.UpdateID) bool {
	for _, u := range r.tentative {
		if u.Seq == id.Seq && u.ClientID == id.Client {
			return true
		}
	}
	return false
}
