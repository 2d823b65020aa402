package core

import (
	"time"

	"oceanstore/internal/simnet"
)

// MaintenanceConfig tunes the background self-repair processes that
// make the infrastructure "automatically adapt to the presence or
// absence of particular servers without human intervention" (§4.3.3).
// Archival repair (§4.5) is not here: archive.Scheduler over Pool.Arch
// is the one repair engine.
type MaintenanceConfig struct {
	// Republish re-deposits location pointers from live replicas —
	// "servers slowly repeat the publishing process to repair pointers".
	Republish time.Duration
	// MeshRepair rebuilds routing tables around failed nodes.
	MeshRepair time.Duration
	// TreeRepair re-attaches dissemination-tree members whose parents
	// died.
	TreeRepair time.Duration
}

// DefaultMaintenanceConfig runs everything on minute-scale periods.
func DefaultMaintenanceConfig() MaintenanceConfig {
	return MaintenanceConfig{
		Republish:  time.Minute,
		MeshRepair: 5 * time.Minute,
		TreeRepair: time.Minute,
	}
}

// StartMaintenance arms the periodic self-repair processes.  The
// returned stop function cancels them.
func (p *Pool) StartMaintenance(cfg MaintenanceConfig) (stop func()) {
	var cancels []func()
	if cfg.Republish > 0 && p.Mesh != nil {
		cancels = append(cancels, p.K.Every(cfg.Republish, p.republishAll))
	}
	if cfg.MeshRepair > 0 && p.Mesh != nil {
		cancels = append(cancels, p.K.Every(cfg.MeshRepair, func() {
			p.syncMeshLiveness()
			p.Mesh.Repair()
			p.Mesh.ExpireSoftState(p.K.Now())
		}))
	}
	if cfg.TreeRepair > 0 {
		cancels = append(cancels, p.K.Every(cfg.TreeRepair, func() {
			for _, st := range p.objects {
				st.ring.EnsureLiveRoot()
				st.ring.Tree().Repair()
			}
		}))
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}
}

// syncMeshLiveness mirrors simnet node liveness into the location mesh
// (the soft-state beacons of §4.3.3, collapsed into a sweep).
func (p *Pool) syncMeshLiveness() {
	for i := 0; i < p.cfg.Nodes; i++ {
		if p.Net.Node(simnet.NodeID(i)).Down() {
			p.Mesh.RemoveNode(i)
		} else if p.Mesh.Node(i).Down {
			p.Mesh.ReviveNode(i)
		}
	}
}

// republishAll re-deposits location pointers for every object from all
// of its live holders (primaries and secondaries).
func (p *Pool) republishAll() {
	for obj, st := range p.objects {
		for _, nid := range st.ring.Tree().Members() {
			if p.Net.Node(nid).Down() || p.Mesh.Node(int(nid)).Down {
				continue
			}
			p.Mesh.Publish(int(nid), obj, p.K.Now())
		}
	}
}
