package core

import (
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/naming"
	"oceanstore/internal/object"
	"oceanstore/internal/replica"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// Client is a trusted endpoint: the only place cleartext and keys exist
// (paper §1.2).  A client is attached to one pool node and carries a
// signing key, a key ring of object read keys, and a per-client update
// sequence.
type Client struct {
	pool   *Pool
	Node   simnet.NodeID
	Signer *crypt.Signer
	Keys   *crypt.KeyRing
	seq    uint64
	// Spread is how many random secondaries receive tentative copies of
	// each update (Fig 5a).
	Spread int
}

// NewClient attaches a client at the given node.
func (p *Pool) NewClient(node simnet.NodeID, signer *crypt.Signer) *Client {
	return &Client{pool: p, Node: node, Signer: signer, Keys: crypt.NewKeyRing(), Spread: 2}
}

// Create provisions an object owned by this client, generating and
// retaining its read key.  Only the owner may write it until the owner
// re-certifies its ACL (Pool.SetACL).
func (c *Client) Create(name string, initial []byte) (guid.GUID, error) {
	return c.create(name, initial, nil)
}

// create is Create binding the ACL certificate cert (nil: owner only).
func (c *Client) create(name string, initial []byte, cert *acl.Certificate) (guid.GUID, error) {
	key := crypt.NewBlockKey(c.pool.K.Rand())
	obj, err := c.pool.CreateObject(c.Signer, name, initial, key, cert)
	if err != nil {
		return guid.Zero, err
	}
	c.Keys.Grant(obj, key)
	return obj, nil
}

// GrantRead shares an object's read key with another client — reader
// restriction by key distribution (§4.2).
func (c *Client) GrantRead(obj guid.GUID, to *Client) error {
	key, ok := c.Keys.Key(obj)
	if !ok {
		return errors.New("core: no read key held")
	}
	to.Keys.Grant(obj, key)
	return nil
}

// Guarantees are Bayou's session guarantees (§2, [13]): they dictate
// the level of consistency a session's reads and writes observe.
type Guarantees uint8

// The four Bayou session guarantees plus the strong-read flag.
const (
	// ReadYourWrites: reads reflect this session's earlier writes.
	ReadYourWrites Guarantees = 1 << iota
	// MonotonicReads: successive reads never move backwards.
	MonotonicReads
	// WritesFollowReads: writes are ordered after the writes whose
	// effects this session has read.  No code enforces it: a
	// ReadCommitted session gets it from the primary tier's total
	// order, since every write it read is committed before its own
	// write reaches the tier.
	WritesFollowReads
	// MonotonicWrites: this session's writes apply in issue order; the
	// session releases a write to the primary tier only after its
	// predecessor on the same object has committed or aborted.
	MonotonicWrites
	// ReadCommitted: read only primary-committed data (ACID-style);
	// without it reads may observe tentative data for lower latency.
	ReadCommitted
)

// ACID is the strongest session: all guarantees plus committed reads.
const ACID = ReadYourWrites | MonotonicReads | WritesFollowReads | MonotonicWrites | ReadCommitted

// Session is a sequence of reads and writes related through its
// guarantees (§4.6).
type Session struct {
	c *Client
	g Guarantees
	// objs is what the session tracks per object.  An object has an
	// entry only while it holds an unresolved write or a read floor.
	objs map[guid.GUID]sessObj
	// onCommit is the callback registry of §4.6.
	onCommit []func(obj guid.GUID, id update.UpdateID)
	// UpdateTimeout, when non-zero, bounds how long a submitted write may
	// stay unresolved in virtual time.  At the deadline the session gives
	// up: the write aborts, the byz client stops retransmitting, and
	// the next queued write (MonotonicWrites) is released.  Zero keeps
	// the protocol default of retransmitting until partitions heal.
	UpdateTimeout time.Duration
}

// sessObj is one object as a session sees it.  committed and read are
// its read floor; the zero value is an object the session has neither
// read nor written.  It is held by value, so changing one is a read, an
// edit and a store back.
type sessObj struct {
	// committed is the committed-log length a replica must have reached
	// to contain every one of this session's resolved writes (RYW) and
	// the committed part of its last read (MonotonicReads).  Sound
	// because committed logs are prefixes of one final order: any
	// replica at length ≥ n holds the same prefix as the replica that
	// was at length n.
	committed int
	// read holds the IDs of the tentative updates the session's last
	// read saw (MonotonicReads); a replica must have seen each of them.
	read []update.UpdateID
	// first heads the session's unresolved writes to the object, linked
	// in issue order; a session has few in flight on one object.  Under
	// MonotonicWrites only first has been released to the primary tier.
	first *write
}

// write is one client write from Submit to its outcome, which the
// session decides in resolve and nowhere else.
type write struct {
	u        *update.Update
	next     *write // the object's next unresolved write
	timeout  sim.Timer
	resolved bool
	// done, when set, learns the outcome after the session's callbacks.
	done func(committed bool)
	// certified, when set, receives the primary tier's result with its
	// commit certificate once a quorum of replies reaches the client.
	certified func(byz.Result)
}

// NewSession opens a session with the given guarantees.
func (c *Client) NewSession(g Guarantees) *Session {
	return &Session{c: c, g: g, objs: make(map[guid.GUID]sessObj)}
}

// OnCommit registers a callback fired when one of this session's
// updates commits.
func (s *Session) OnCommit(cb func(obj guid.GUID, id update.UpdateID)) {
	s.onCommit = append(s.onCommit, cb)
}

// eligibleSecondaries calls yield, in node order, for each floating
// replica of ring that may serve obj to this session: live, not stale,
// and holding the session's read floor.  A ReadCommitted session is
// served by the primary tier alone, so nothing is yielded.  Every read
// path selects among exactly this set; which one it takes — nearest, a
// latency-ordered list, earliest predicted completion — is the
// caller's rule.
func (s *Session) eligibleSecondaries(ring *replica.Ring, obj guid.GUID, yield func(*replica.Secondary)) {
	if s.g&ReadCommitted != 0 {
		return
	}
	st := s.objs[obj]
	net := s.c.pool.Net
	for _, sec := range ring.Secondaries() {
		if sec.Stale || net.Node(sec.Node).Down() || !s.accepts(st, sec.Rep) {
			continue
		}
		yield(sec)
	}
}

// pickReplica chooses the replica a read is served from: the closest
// one (by modeled latency) whose state satisfies the session's
// guarantees, falling back to the primary tier, which always does.
func (s *Session) pickReplica(obj guid.GUID) (*epidemic.Replica, error) {
	ring, ok := s.c.pool.Ring(obj)
	if !ok {
		return nil, fmt.Errorf("core: unknown object %s", obj.Short())
	}
	var best *replica.Secondary
	net := s.c.pool.Net
	s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) {
		if best == nil || net.Latency(s.c.Node, sec.Node) < net.Latency(s.c.Node, best.Node) {
			best = sec
		}
	})
	if best != nil {
		best.Reads++
		return best.Rep, nil
	}
	return ring.PrimaryState(), nil
}

// accepts reports whether replica r may serve an object to this session
// under RYW and MonotonicReads.  st is the object's entry, looked up
// once per read; a floor field the session's guarantees never set
// accepts every replica.
func (s *Session) accepts(st sessObj, r *epidemic.Replica) bool {
	// Resolved writes and committed reads: one committed-prefix length
	// comparison.
	if r.CommittedLen() < st.committed {
		return false
	}
	// Unresolved writes: the replica must have at least a tentative copy
	// of each.  A write whose callbacks are running is resolved.
	if s.g&ReadYourWrites != 0 {
		for w := st.first; w != nil; w = w.next {
			if !w.resolved && !r.Seen(w.u.ID()) {
				return false
			}
		}
	}
	// Tentative reads: the replica must have seen each update read.
	for _, id := range st.read {
		if !r.Seen(id) {
			return false
		}
	}
	return true
}

// observe raises obj's MonotonicReads floor after a read that saw a
// committed log of length n and the tentative updates ids.  The ID list
// is replaced, not merged: the replica that served the read met the old
// floor, so each old ID is committed below n or among ids.  When no
// secondary meets the floor the primary tier serves; its committed
// state is at or past the floor, but it holds only the tentative
// updates gossip brought it, so a tentative update read that never
// commits — one expired after TentativeExpire on every replica, say —
// can leave the floor there.
func (s *Session) observe(obj guid.GUID, n int, ids []update.UpdateID) {
	st := s.objs[obj]
	st.committed = max(st.committed, n)
	st.read = ids
	s.objs[obj] = st
}

// Read returns the object's logical contents as seen through the
// session's guarantees.  The client must hold the read key.
func (s *Session) Read(obj guid.GUID) ([]byte, error) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		return nil, errors.New("core: read permission denied (no key)")
	}
	rep, err := s.pickReplica(obj)
	if err != nil {
		return nil, err
	}
	var v *object.Version
	if s.g&ReadCommitted != 0 {
		v = rep.CommittedState()
	} else {
		v = rep.TentativeState(s.c.pool.K.Now())
	}
	data, err := object.ViewWith(v, bc).Read()
	if err != nil {
		return nil, err
	}
	if s.g&MonotonicReads != 0 {
		var ids []update.UpdateID
		if s.g&ReadCommitted == 0 {
			ids = rep.TentativeIDs(nil)
		}
		s.observe(obj, rep.CommittedLen(), ids)
	}
	return data, nil
}

// ReadVersion exposes the version a read would see — used by facades
// and by clients constructing compare-version guards.
func (s *Session) ReadVersion(obj guid.GUID) (*object.Version, error) {
	if _, ok := s.c.Keys.Key(obj); !ok {
		return nil, errors.New("core: read permission denied (no key)")
	}
	rep, err := s.pickReplica(obj)
	if err != nil {
		return nil, err
	}
	if s.g&ReadCommitted != 0 {
		return rep.CommittedState(), nil
	}
	return rep.TentativeState(s.c.pool.K.Now()), nil
}

// Editor returns a client-side editor over the session's current view
// of the object, for composing update actions.
func (s *Session) Editor(obj guid.GUID) (*object.Editor, *object.Version, error) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		return nil, nil, errors.New("core: read permission denied (no key)")
	}
	v, err := s.ReadVersion(obj)
	if err != nil {
		return nil, nil, err
	}
	ed, err := object.EditorWith(v, bc)
	if err != nil {
		return nil, nil, err
	}
	return ed.WithSalt(s.c.Signer.GUID().Uint64()), v, nil
}

// Submit signs and submits a fully formed update; commit callbacks fire
// on the primary tier's decision.  Guards are the caller's (see Append
// for the common case, or the tx facade for ACID).  Under
// MonotonicWrites a write waits until the session's previous write to
// the same object resolves, so writes apply in issue order even across
// retransmissions and view changes.
func (s *Session) Submit(u *update.Update) update.UpdateID {
	return s.submit(&write{u: u})
}

// SubmitCertified is Submit for a caller that wants proof of the
// commit (§4.4.3): certified receives the tier's result, whose
// Certificate anyone holding the tier's public keys can check offline.
func (s *Session) SubmitCertified(u *update.Update, certified func(byz.Result)) update.UpdateID {
	return s.submit(&write{u: u, certified: certified})
}

// submit numbers, signs and queues w's update.
func (s *Session) submit(w *write) update.UpdateID {
	c, u := s.c, w.u
	c.seq++
	u.ClientID = c.Signer.GUID()
	u.Seq = c.seq
	u.Timestamp = c.pool.K.Now()
	// The signature is computed off this goroutine and joined by its
	// first reader — the tier's CheckWrite, one agreement away.
	u.StartSign(c.Signer)
	st := s.objs[u.Object]
	p := &st.first
	for *p != nil {
		p = &(*p).next
	}
	*p = w
	s.objs[u.Object] = st
	if s.g&MonotonicWrites == 0 || st.first == w {
		s.send(w)
	}
	return u.ID()
}

// send releases a write to the ring.  It resolves on the primary tier's
// decision or, with UpdateTimeout set, at the deadline.
func (s *Session) send(w *write) {
	c := s.c
	u := w.u
	ring, ok := c.pool.Ring(u.Object)
	if !ok {
		return
	}
	ring.AwaitCommit(u.ID(), func(out update.Outcome) {
		// The update is now serialised at the primary: any replica whose
		// committed log reaches the primary's current length holds it,
		// so the session's RYW check collapses to a prefix comparison.
		if s.g&ReadYourWrites != 0 {
			st := s.objs[u.Object]
			st.committed = max(st.committed, ring.PrimaryState().CommittedLen())
			s.objs[u.Object] = st
		}
		s.resolve(w, out.Committed)
	})
	if s.UpdateTimeout > 0 {
		// Virtual-time write timeout: give up, stop the retransmission
		// loop, and unblock the MonotonicWrites queue.  Without it a
		// write stalled behind a partition retransmits until the heal —
		// correct for eventual delivery, wrong for a client that needs an
		// answer.  resolve stops the timer, so it only ever fires on an
		// unresolved write.
		w.timeout = c.pool.K.After(s.UpdateTimeout, func() {
			ring.Cancel(c.Node, u)
			s.resolve(w, false)
		})
	}
	ring.Submit(c.Node, u, c.Spread, w.certified)
}

// resolve decides a write's outcome: on a commit the session's
// callbacks run; then the write's done; then the write leaves its
// object's list and, under MonotonicWrites, the next write to the
// object is released.  A write submitted from a callback therefore
// queues behind this one.  An object left with no write and no read
// floor leaves the session.  It runs once per write: the waiter and the
// timeout each cancel the other.
func (s *Session) resolve(w *write, committed bool) {
	w.resolved = true
	w.timeout.Stop()
	obj := w.u.Object
	if committed {
		for _, cb := range s.onCommit {
			cb(obj, w.u.ID())
		}
	}
	if w.done != nil {
		w.done(committed)
	}
	st := s.objs[obj]
	p := &st.first
	for *p != w {
		p = &(*p).next
	}
	*p, w.next = w.next, nil
	if st.first == nil && st.committed == 0 && st.read == nil {
		delete(s.objs, obj)
		return
	}
	s.objs[obj] = st
	if st.first != nil && s.g&MonotonicWrites != 0 {
		s.send(st.first)
	}
}

// Append is the common write: append payload to the object,
// unconditionally.
func (s *Session) Append(obj guid.GUID, payload []byte) (update.UpdateID, error) {
	ed, _, err := s.Editor(obj)
	if err != nil {
		return update.UpdateID{}, err
	}
	u := update.NewUnconditional(obj, update.BlockOps(ed.Append(payload)))
	return s.Submit(u), nil
}

// replace overwrites the logical block at index idx, unconditionally;
// done is submit's.
func (s *Session) replace(obj guid.GUID, idx int, payload []byte, done func(committed bool)) (update.UpdateID, error) {
	ed, _, err := s.Editor(obj)
	if err != nil {
		return update.UpdateID{}, err
	}
	op, err := ed.Replace(idx, payload)
	if err != nil {
		return update.UpdateID{}, err
	}
	u := update.NewUnconditional(obj, update.BlockOps(op))
	return s.submit(&write{u: u, done: done}), nil
}

// Watch registers a callback fired whenever ANY client's update to obj
// commits at the primary tier — the §4.6 callback feature for
// "relevant events" beyond the session's own writes (e.g. a mail
// reader refreshing when new mail lands).
func (s *Session) Watch(obj guid.GUID, cb func(id update.UpdateID)) error {
	ring, ok := s.c.pool.Ring(obj)
	if !ok {
		return fmt.Errorf("core: unknown object %s", obj.Short())
	}
	ring.OnCommit(func(u *update.Update, out update.Outcome) {
		if out.Committed {
			cb(u.ID())
		}
	})
	return nil
}

// SetSearchIndex builds an encrypted word index for the object from
// the given word list and installs it via an update (§4.4.2).  The
// index cells are opaque to servers; only trapdoors issued by key
// holders can test them.
func (s *Session) SetSearchIndex(obj guid.GUID, words []string) (update.UpdateID, error) {
	key, ok := s.c.Keys.Key(obj)
	if !ok {
		return update.UpdateID{}, errors.New("core: no key for object")
	}
	idx := crypt.NewSearchKey(key).BuildIndex(words)
	u := update.NewUnconditional(obj, []update.Action{{Kind: update.ActSetIndex, Index: idx}})
	return s.Submit(u), nil
}

// Search evaluates the encrypted-search predicate against the replica
// a read would use: the client issues a trapdoor for the word and the
// (untrusted, keyless) server-side index scan reports whether it
// occurs.  The server learns only the boolean result (§4.4.2).
func (s *Session) Search(obj guid.GUID, word string) (bool, error) {
	key, ok := s.c.Keys.Key(obj)
	if !ok {
		return false, errors.New("core: no key for object")
	}
	v, err := s.ReadVersion(obj)
	if err != nil {
		return false, err
	}
	if v.Index == nil {
		return false, nil
	}
	td := crypt.NewSearchKey(key).Trapdoor(word)
	return len(v.Index.Search(td)) > 0, nil
}

// ReadAt reads a specific archived version of an object, resolving a
// version-qualified reference (§4.5 "permanent hyper-link"): by version
// number or by version GUID.  Retired versions are gone from the
// active replica (their archival fragments persist; see
// archive.Service).
func (s *Session) ReadAt(obj guid.GUID, ref naming.Ref) ([]byte, error) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		return nil, errors.New("core: read permission denied (no key)")
	}
	ring, ok := s.c.pool.Ring(obj)
	if !ok {
		return nil, fmt.Errorf("core: unknown object %s", obj.Short())
	}
	if !ref.HasVersion {
		return s.Read(obj)
	}
	var v *object.Version
	if ref.ByGUID {
		v, ok = ring.History().ByGUID(ref.VersionGUID)
	} else {
		v, ok = ring.History().ByNum(ref.VersionNum)
	}
	if !ok {
		return nil, errors.New("core: version not retained (retired or never existed)")
	}
	return object.ViewWith(v, bc).Read()
}

// ResolveAndRead resolves a full version-qualified path ("root:/a/b@v2")
// through the given resolver and reads the referenced data.
func (s *Session) ResolveAndRead(r *naming.Resolver, path string) ([]byte, error) {
	ref, err := r.Resolve(path)
	if err != nil {
		return nil, err
	}
	return s.ReadAt(ref.Object, ref)
}

// Resolver builds a naming resolver whose directory fetches read
// through this session.
func (s *Session) Resolver() *naming.Resolver {
	return naming.NewResolver(func(dir guid.GUID) (*naming.Directory, error) {
		data, err := s.Read(dir)
		if err != nil {
			return nil, err
		}
		return naming.DecodeDirectory(data)
	})
}
