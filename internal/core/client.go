package core

import (
	"errors"
	"fmt"
	"time"

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
// retaining its read key.
func (c *Client) Create(name string, initial []byte) (guid.GUID, error) {
	key := crypt.NewBlockKey(c.pool.K.Rand())
	obj, err := c.pool.CreateObject(c.Signer, name, initial, key)
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
	// effects this session has read.
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
	c      *Client
	g      Guarantees
	readVV map[guid.GUID]map[guid.GUID]uint64 // per object: observed version vector
	// pending tracks this session's unresolved writes per object for
	// RYW; resolved writes collapse into needCommitted so a long
	// session's read check stays O(in-flight), not O(all writes ever).
	pending map[guid.GUID]map[update.UpdateID]bool
	// needCommitted is the committed-log length a replica must have
	// reached to contain every one of this session's resolved writes.
	// Sound because committed logs are prefixes of one final order: any
	// replica at length ≥ n holds the same prefix the primary had when
	// the session's write resolved at position ≤ n.
	needCommitted map[guid.GUID]int
	// onCommit/onAbort are the callback registry of §4.6.
	onCommit []func(obj guid.GUID, id update.UpdateID)
	onAbort  []func(obj guid.GUID, id update.UpdateID)
	// inflight/queued implement MonotonicWrites: one outstanding write
	// per object, the rest released in issue order.
	inflight map[guid.GUID]bool
	queued   map[guid.GUID][]*update.Update
	// UpdateTimeout, when non-zero, bounds how long a submitted write may
	// stay unresolved in virtual time.  At the deadline the session gives
	// up: abort callbacks fire, the byz client stops retransmitting, and
	// the next queued write (MonotonicWrites) is released.  Zero keeps
	// the protocol default of retransmitting until partitions heal.
	UpdateTimeout time.Duration
}

// NewSession opens a session with the given guarantees.
func (c *Client) NewSession(g Guarantees) *Session {
	return &Session{
		c:             c,
		g:             g,
		readVV:        make(map[guid.GUID]map[guid.GUID]uint64),
		pending:       make(map[guid.GUID]map[update.UpdateID]bool),
		needCommitted: make(map[guid.GUID]int),
		inflight:      make(map[guid.GUID]bool),
		queued:        make(map[guid.GUID][]*update.Update),
	}
}

// OnCommit registers a callback fired when one of this session's
// updates commits.
func (s *Session) OnCommit(cb func(obj guid.GUID, id update.UpdateID)) {
	s.onCommit = append(s.onCommit, cb)
}

// OnAbort registers a callback fired when one of this session's updates
// aborts (its guards all failed at commit time).
func (s *Session) OnAbort(cb func(obj guid.GUID, id update.UpdateID)) {
	s.onAbort = append(s.onAbort, cb)
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
	floor := s.readFloor(obj)
	net := s.c.pool.Net
	for _, sec := range ring.Secondaries() {
		if sec.Stale || net.Node(sec.Node).Down() || !floor.accepts(sec.Rep) {
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

// readFloor is what a replica must hold to serve one object to this
// session under RYW and MonotonicReads — looked up once per read, then
// checked against each candidate.  A guarantee the session does not
// carry leaves its fields zero, which every replica satisfies.
type readFloor struct {
	needCommitted int
	pending       map[update.UpdateID]bool
	vv            map[guid.GUID]uint64
}

func (s *Session) readFloor(obj guid.GUID) readFloor {
	var f readFloor
	if s.g&ReadYourWrites != 0 {
		f.needCommitted, f.pending = s.needCommitted[obj], s.pending[obj]
	}
	if s.g&MonotonicReads != 0 {
		f.vv = s.readVV[obj]
	}
	return f
}

func (f readFloor) accepts(r *epidemic.Replica) bool {
	// Resolved writes: one committed-prefix length comparison.
	if r.CommittedLen() < f.needCommitted {
		return false
	}
	// In-flight writes: the replica must have at least a tentative copy
	// of each (pure AND over the set — map order cannot leak).
	for id := range f.pending {
		if !r.Seen(id) {
			return false
		}
	}
	return r.Dominates(f.vv)
}

// Read returns the object's logical contents as seen through the
// session's guarantees.  The client must hold the read key.
func (s *Session) Read(obj guid.GUID) ([]byte, error) {
	if _, ok := s.c.Keys.Cipher(obj); !ok {
		return nil, errors.New("core: read permission denied (no key)")
	}
	rep, err := s.pickReplica(obj)
	if err != nil {
		return nil, err
	}
	return s.ReadReplica(obj, rep)
}

// ReadReplica reads obj from a replica the caller has already chosen —
// the soak world's modeled read path picks servers queue-aware instead
// of purely by distance, then completes the read here.  The caller is
// responsible for having checked the replica against the session's
// guarantees at selection time (Read does so via pickReplica).
func (s *Session) ReadReplica(obj guid.GUID, rep *epidemic.Replica) ([]byte, error) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		return nil, errors.New("core: read permission denied (no key)")
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
	// Advance the session's observed vector (MonotonicReads floor).
	// The vector copy is paid only when the guarantee consumes it — at
	// soak rates an unconditional copy per read dominated the path.
	if s.g&MonotonicReads != 0 {
		s.readVV[obj] = rep.VersionVector()
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

// Submit signs and submits a fully formed update; callbacks fire on the
// primary tier's decision.  Guards are the caller's (see Append for the
// common case, or the tx facade for ACID).  Under MonotonicWrites a
// write waits until the session's previous write to the same object
// resolves, so writes apply in issue order even across retransmissions
// and view changes.
func (s *Session) Submit(u *update.Update) update.UpdateID {
	c := s.c
	c.seq++
	u.ClientID = c.Signer.GUID()
	u.Seq = c.seq
	u.Timestamp = c.pool.K.Now()
	// The signature is computed off this goroutine and joined by its
	// first reader — the tier's CheckWrite, one agreement away.
	u.StartSign(c.Signer)
	id := u.ID()
	set := s.pending[u.Object]
	if set == nil {
		set = make(map[update.UpdateID]bool)
		s.pending[u.Object] = set
	}
	set[id] = true

	if s.g&MonotonicWrites != 0 && s.inflight[u.Object] {
		s.queued[u.Object] = append(s.queued[u.Object], u)
		return id
	}
	s.send(u)
	return id
}

// send releases an update to the ring and arms the completion chain.
func (s *Session) send(u *update.Update) {
	c := s.c
	ring, ok := c.pool.Ring(u.Object)
	if !ok {
		return
	}
	id := u.ID()
	obj := u.Object
	s.inflight[obj] = true
	// One captured variable, so one allocation, for the pair.
	var st struct {
		resolved bool
		timeout  sim.Timer
	}
	finish := func(committed bool) {
		if st.resolved {
			return
		}
		st.resolved = true
		st.timeout.Stop()
		// Drop the write set with its last entry: a session touches many
		// objects over its life and has writes in flight on few.
		set := s.pending[obj]
		delete(set, id)
		if len(set) == 0 {
			delete(s.pending, obj)
		}
		if committed {
			for _, cb := range s.onCommit {
				cb(obj, id)
			}
		} else {
			for _, cb := range s.onAbort {
				cb(obj, id)
			}
		}
		// Release the next queued write for this object, if any.
		s.inflight[obj] = false
		if q := s.queued[obj]; len(q) > 0 {
			next := q[0]
			s.queued[obj] = q[1:]
			s.send(next)
		}
	}
	ring.AwaitCommit(id, func(out update.Outcome) {
		// The update is now serialised at the primary: any replica whose
		// committed log reaches the primary's current length holds it,
		// so the session's RYW check collapses to a prefix comparison.
		if s.g&ReadYourWrites != 0 {
			if n := ring.PrimaryState().CommittedLen(); n > s.needCommitted[obj] {
				s.needCommitted[obj] = n
			}
		}
		finish(out.Committed)
	})
	if s.UpdateTimeout > 0 {
		// Virtual-time write timeout: give up, stop the retransmission
		// loop, and unblock the MonotonicWrites queue.  Without it a
		// write stalled behind a partition retransmits until the heal —
		// correct for eventual delivery, wrong for a client that needs an
		// answer.  finish stops the timer, so it only ever fires on an
		// unresolved write.
		st.timeout = c.pool.K.After(s.UpdateTimeout, func() {
			ring.Cancel(c.Node, u)
			finish(false)
		})
	}
	ring.Submit(c.Node, u, c.Spread, nil)
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

// Replace overwrites the logical block at index idx.
func (s *Session) Replace(obj guid.GUID, idx int, payload []byte) (update.UpdateID, error) {
	ed, _, err := s.Editor(obj)
	if err != nil {
		return update.UpdateID{}, err
	}
	op, err := ed.Replace(idx, payload)
	if err != nil {
		return update.UpdateID{}, err
	}
	u := update.NewUnconditional(obj, update.BlockOps(op))
	return s.Submit(u), nil
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
