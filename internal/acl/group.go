package acl

import "sort"

// Group is a working group (§4.2: "More complicated access control
// policies, such as working groups, are constructed from these two"
// primitives).  A group is client-side state: a named set of member
// signing keys.  Granting the group access to an object means
// compiling it into an ACL and having the owner certify that ACL;
// changing membership means re-compiling and re-certifying with a
// higher serial, which atomically revokes removed members' write
// access.  (Read access additionally requires re-keying, as always.)
type Group struct {
	Name    string
	members map[string][]byte // keyed by string(pubkey) for dedup
}

// NewGroup creates an empty working group.
func NewGroup(name string) *Group {
	return &Group{Name: name, members: make(map[string][]byte)}
}

// Add inserts a member's public key; duplicates are ignored.
func (g *Group) Add(pub []byte) {
	g.members[string(pub)] = append([]byte(nil), pub...)
}

// Remove drops a member.
func (g *Group) Remove(pub []byte) { delete(g.members, string(pub)) }

// Members returns the member keys in deterministic order.
func (g *Group) Members() [][]byte {
	keys := make([]string, 0, len(g.members))
	for k := range g.members {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = g.members[k]
	}
	return out
}

// ToACL compiles the group into an ACL granting every member the given
// privilege.  Entries carry signing keys, never identities (§4.2).
func (g *Group) ToACL(priv Privilege) *ACL {
	a := &ACL{}
	for _, pub := range g.Members() {
		a.Entries = append(a.Entries, Entry{PubKey: pub, Priv: priv})
	}
	return a
}
