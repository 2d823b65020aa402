package simnet

// LinkBytes is what the attached registry's link table holds for the
// link from → to: the bytes sent on it since the registry was attached,
// 0 for a link the table has not seen.
func (n *Network) LinkBytes(from, to NodeID) int64 {
	return n.om.links.slot(linkKey(from, to)).bytes
}

// DemuxCap is the capacity of the node's demux table.
func (n Node) DemuxCap() int { return cap(n.net.demux[n.ID]) }

// LinkEntity is the entity the simnet/link_bytes and simnet/link_drops
// families key the link from → to by, for Registry.CounterValue.
func LinkEntity(from, to NodeID) int { return int(linkKey(from, to)) }
