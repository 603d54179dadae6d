package netwire

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/actor"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/wal"
)

// Mesh is an in-process cluster of Nodes — one per site — connected
// over real loopback TCP.  Every message between sites crosses the
// wire codec, the socket, and the reliability layer, so the mesh
// exercises the full transport without forking processes; cmd/wfnet
// runs the same Node code with the sites spread across OS processes.
type Mesh struct {
	driver    simnet.SiteID
	nodes     map[simnet.SiteID]*Node
	order     []simnet.SiteID
	peers     map[simnet.SiteID]string
	started   bool
	committer *wal.Committer
	// idle is the one tracker every node counts into.  A receiver
	// counts a frame before it acks it, so the shared count never
	// reads zero while anything is in flight anywhere in the mesh.
	idle quiesce.NotifyTracker
}

// MeshOptions configure durability and lifecycle beyond the plain
// fault-injected mesh.
type MeshOptions struct {
	// Fault, when set, is applied to every node's outbound frames.
	Fault *simnet.FaultPlan
	// WALRoot, when non-empty, gives every node a WAL in
	// WALRoot/<site>; reusing a root across mesh constructions is how a
	// crashed mesh recovers.
	WALRoot string
	// NoSync is passed to each node's wal.Options.
	NoSync bool
	// CheckpointEvery enables periodic watermark checkpoints per node.
	CheckpointEvery time.Duration
	// DeferStart leaves the nodes bound but not started, so the caller
	// can run Recover between Register and Start.
	DeferStart bool
}

// NewMesh builds, binds, and starts one node per site (plus the driver
// site) on loopback.  Node indices — and therefore occurrence-index
// tiebreaks — follow the sorted site order, deterministically.
func NewMesh(driver simnet.SiteID, sites []simnet.SiteID, fp *simnet.FaultPlan) (*Mesh, error) {
	return NewMeshOpts(driver, sites, MeshOptions{Fault: fp})
}

// NewMeshOpts is NewMesh with durability and lifecycle options.
func NewMeshOpts(driver simnet.SiteID, sites []simnet.SiteID, opts MeshOptions) (*Mesh, error) {
	seen := map[simnet.SiteID]bool{driver: true}
	all := []simnet.SiteID{driver}
	for _, s := range sites {
		if !seen[s] {
			seen[s] = true
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	m := &Mesh{driver: driver, nodes: make(map[simnet.SiteID]*Node, len(all)), order: all}
	if opts.WALRoot != "" {
		// One fsync scheduler for the whole mesh: N sites appending in
		// the same window cost one round of overlapped fsyncs, not N
		// independent flush loops, so the processed⇒durable and
		// acked⇒durable gates across every site ride coalesced rounds.
		m.committer = wal.NewCommitter(wal.CommitterOptions{})
	}
	peers := make(map[simnet.SiteID]string, len(all))
	for i, site := range all {
		var w *wal.Log
		if opts.WALRoot != "" {
			var err error
			w, err = wal.Open(filepath.Join(opts.WALRoot, string(site)), wal.Options{
				NoSync: opts.NoSync, Committer: m.committer,
			})
			if err != nil {
				m.Close()
				return nil, err
			}
		}
		n := NewNode(Config{
			ID:              string(site),
			ListenAddr:      "127.0.0.1:0",
			NodeIndex:       i,
			Fault:           opts.Fault,
			WAL:             w,
			CheckpointEvery: opts.CheckpointEvery,
			// Loopback links fail fast and cheap; snappy retry bounds
			// keep fault recovery (and the chaos suite) quick.
			RetryMin: 5 * time.Millisecond,
			RetryMax: 200 * time.Millisecond,
		})
		n.pend = &m.idle
		addr, err := n.Listen()
		if err != nil {
			n.Close()
			m.Close()
			return nil, err
		}
		m.nodes[site] = n
		peers[site] = addr
	}
	m.peers = peers
	if !opts.DeferStart {
		m.Start()
	}
	return m, nil
}

// Start starts every node (idempotent).  With DeferStart, call it
// after Recover.
func (m *Mesh) Start() {
	if m.started {
		return
	}
	m.started = true
	for _, site := range m.order {
		m.nodes[site].Start(m.peers)
	}
}

// NeedsRecovery reports whether any node's WAL holds state to restore.
func (m *Mesh) NeedsRecovery() bool {
	for _, n := range m.nodes {
		if n.NeedsRecovery() {
			return true
		}
	}
	return false
}

// Recover replays every node's WAL (sorted site order, before Start).
func (m *Mesh) Recover(host RecoveryHost) error {
	for _, site := range m.order {
		if n := m.nodes[site]; n.NeedsRecovery() {
			if err := n.Recover(host); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetSnapshotProvider installs the per-site state serializer on every
// node.
func (m *Mesh) SetSnapshotProvider(fn func(simnet.SiteID) ([]byte, error)) {
	for _, n := range m.nodes {
		n.SetSnapshotProvider(fn)
	}
}

// Snapshot quiesces the mesh and compacts every node's WAL.
func (m *Mesh) Snapshot(timeout time.Duration) error {
	if !m.WaitIdle(timeout) {
		return fmt.Errorf("netwire: snapshot: mesh not quiescent after %v", timeout)
	}
	for _, site := range m.order {
		if err := m.nodes[site].Snapshot(); err != nil {
			return err
		}
	}
	return nil
}

// Register hosts a site's handler on that site's node.
func (m *Mesh) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	m.nodes[site].Register(site, h)
}

// Send routes a payload from the sending site's node.  Unknown sending
// sites (driver-internal aliases) fall back to the driver's node.
func (m *Mesh) Send(from, to simnet.SiteID, payload any) {
	n, ok := m.nodes[from]
	if !ok {
		n = m.nodes[m.driver]
	}
	n.Send(from, to, payload)
}

// Now returns the driver node's clock.
func (m *Mesh) Now() simnet.Time { return m.nodes[m.driver].Now() }

// NextOccurrence issues an occurrence index from the driver node.
func (m *Mesh) NextOccurrence() int64 { return m.nodes[m.driver].NextOccurrence() }

// Clock reads the driver node's occurrence bound without advancing it.
func (m *Mesh) Clock() int64 { return m.nodes[m.driver].Clock() }

// WaitIdle waits for genuine cluster-wide quiescence: the mesh's
// shared pending count at zero.
func (m *Mesh) WaitIdle(timeout time.Duration) bool { return m.idle.WaitIdle(timeout) }

// IdleNow reports whether nothing is in flight anywhere in the mesh.
func (m *Mesh) IdleNow() bool { return m.idle.IdleNow() }

// IdleWait returns the channel the mesh's next zero-transition closes,
// and its cancel (see quiesce.NotifyTracker.IdleWait).
func (m *Mesh) IdleWait() (<-chan struct{}, func()) { return m.idle.IdleWait() }

// UseSymbols hands every node the plan's symbol table (see
// Node.UseSymbols).
func (m *Mesh) UseSymbols(tab *symtab.Table) {
	for _, n := range m.nodes {
		n.UseSymbols(tab)
	}
}

// Stats sums delivery metrics over all nodes.
func (m *Mesh) Stats() (delivered, deduped int64) {
	for _, n := range m.nodes {
		d, dd := n.Stats()
		delivered += d
		deduped += dd
	}
	return delivered, deduped
}

// BatchStats sums outbound coalescing metrics over all nodes.
func (m *Mesh) BatchStats() (batches, frames int64) {
	for _, n := range m.nodes {
		b, f := n.BatchStats()
		batches += b
		frames += f
	}
	return batches, frames
}

// WALSyncs sums completed fsync batches over all node logs (zero on a
// volatile mesh) — the group-commit amortization engine runs report.
func (m *Mesh) WALSyncs() int64 {
	var total int64
	for _, n := range m.nodes {
		total += n.WALSyncs()
	}
	return total
}

// Node returns the node hosting a site (nil if the site is unknown).
// internal/engine registers its per-instance demultiplexers directly
// on the nodes through this.
func (m *Mesh) Node(site simnet.SiteID) *Node { return m.nodes[site] }

// Close shuts down every node, then the shared committer (node Close
// seals each log, so the committer finds nothing left to flush).
func (m *Mesh) Close() {
	for _, n := range m.nodes {
		n.Close()
	}
	if m.committer != nil {
		m.committer.Close()
	}
}
