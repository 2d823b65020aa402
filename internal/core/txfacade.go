package core

import (
	"errors"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// Tx is the transactional facade of §4.6 over a single object: reads
// record the assumed version (the read set), writes are staged locally,
// and Commit submits one update whose first predicate checks the read
// set and whose actions apply the write set — exactly the paper's
// ACID-shape update (§4.4.1).  If another transaction commits first,
// the guard fails and the transaction aborts rather than losing an
// update (optimistic concurrency with conflict detection at the
// replicas).
type Tx struct {
	sess *Session
	obj  guid.GUID

	base      *object.Version
	ed        *object.Editor
	staged    []object.Op
	committed bool
	submitted bool

	// status is set by the submitted write's outcome.
	status TxStatus
}

// TxStatus is the transaction's lifecycle state.
type TxStatus int

// Transaction states.
const (
	TxPending TxStatus = iota
	TxSubmitted
	TxCommitted
	TxAborted
)

// Begin opens a transaction on obj.  The session should include
// ReadCommitted for true ACID semantics.
func (s *Session) Begin(obj guid.GUID) (*Tx, error) {
	ed, base, err := s.Editor(obj)
	if err != nil {
		return nil, err
	}
	return &Tx{sess: s, obj: obj, base: base, ed: ed}, nil
}

// Read returns the object's contents as of the transaction snapshot,
// with staged writes applied (read-your-own-writes inside the tx).
func (t *Tx) Read() ([]byte, error) {
	bc, ok := t.sess.c.Keys.Cipher(t.obj)
	if !ok {
		return nil, errors.New("core: no key")
	}
	v := t.base.Clone(t.sess.c.pool.K.Now())
	for _, op := range t.staged {
		if err := v.ApplyOp(op); err != nil {
			return nil, err
		}
	}
	return object.ViewWith(v, bc).Read()
}

// Append stages an append of payload.
func (t *Tx) Append(payload []byte) error {
	if t.submitted {
		return errors.New("core: transaction already submitted")
	}
	t.staged = append(t.staged, t.ed.Append(payload))
	return nil
}

// Delete stages a delete of logical block idx.
func (t *Tx) Delete(idx int) error {
	if t.submitted {
		return errors.New("core: transaction already submitted")
	}
	op, err := t.ed.Delete(idx)
	if err != nil {
		return err
	}
	t.staged = append(t.staged, op)
	return nil
}

// Commit submits the transaction: one version-guarded update.  The
// result arrives asynchronously; poll Status after advancing the
// simulated world, or register session callbacks.
func (t *Tx) Commit() (update.UpdateID, error) {
	if t.submitted {
		return update.UpdateID{}, errors.New("core: transaction already submitted")
	}
	if len(t.staged) == 0 {
		t.status = TxCommitted // empty transaction trivially commits
		t.submitted = true
		return update.UpdateID{}, nil
	}
	t.submitted = true
	t.status = TxSubmitted
	u := update.NewVersionGuarded(t.obj, t.base.Num, update.BlockOps(t.staged...))
	return t.sess.submit(&write{u: u, done: func(committed bool) {
		if committed {
			t.status = TxCommitted
		} else {
			t.status = TxAborted
		}
	}}), nil
}

// Status reports the transaction's current state.
func (t *Tx) Status() TxStatus { return t.status }
