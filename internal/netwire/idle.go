package netwire

// IdleReport is one node's link counts, read at a moment its pending
// count was zero.  Nodes in other processes share no tracker; their
// reports, compared link by link with Quiescent, say when all are idle.
type IdleReport struct {
	ID   string // the node's id: its peers' Delivered key
	Addr string // the node's listen address: its peers' Sent key
	// Sent holds the last sequence number issued on each outbound link,
	// by remote address; Delivered the records handed on from each
	// sending node, by its id.
	Sent, Delivered map[string]uint64
}

// IdleReport reads this node's report, or reports false if the node is
// busy or a delivery landed during the read (its next zero-transition
// is the time to try again).  The delivered counts are never the
// watermarks: a watermark advances in admit, before its frame is
// pending, so a report built from it could count a frame whose handler
// has not yet run; recvPeer.delivered moves only once the pending count
// covers the frame.  The reads run delivered total, pending, counts,
// pending.  Two zero pending reads and an unchanged total mean no
// handler ran between them, as only a delivery (or the driver, which
// does not send while it checks for idle) starts one: the report is
// the node's state at one idle instant.
func (n *Node) IdleReport() (IdleReport, bool) {
	_, _, before := n.linkCounts()
	if n.pend.Pending() != 0 {
		return IdleReport{}, false
	}
	sent, delivered, after := n.linkCounts()
	if after != before || n.pend.Pending() != 0 {
		return IdleReport{}, false
	}
	r := IdleReport{ID: n.cfg.ID, Sent: sent, Delivered: delivered}
	if n.lis != nil {
		r.Addr = n.lis.Addr().String()
	}
	return r, true
}

// linkCounts reads the nonzero sent counts, then the nonzero delivered
// counts (Quiescent relies on there being no zero entries) and their
// total.
func (n *Node) linkCounts() (sent, delivered map[string]uint64, total uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sent, delivered = map[string]uint64{}, map[string]uint64{}
	for addr, l := range n.links {
		l.mu.Lock()
		if l.nextSeq > 0 {
			sent[addr] = l.nextSeq
		}
		l.mu.Unlock()
	}
	for id, rp := range n.recvs {
		if d := rp.delivered.Load(); d > 0 {
			delivered[id] = d
			total += d
		}
	}
	return sent, delivered, total
}

// Quiescent reports whether a cluster, given one report per node, is
// idle with nothing in flight: on every link the sender's sent count
// equals the receiver's delivered count.  Stale reports keep it exact:
// a node leaves its report only by a delivery the report misses; on a
// balanced link its sender sent that frame after its own report, so
// left that report earlier, and no such delivery can be the earliest.
// Equal per-node totals are not enough: a stale report hides one.
func Quiescent(reports []IdleReport) bool {
	byAddr := make(map[string]*IdleReport, len(reports))
	unmatched := 0 // delivered entries no sent entry has matched
	for i := range reports {
		byAddr[reports[i].Addr] = &reports[i]
		unmatched += len(reports[i].Delivered)
	}
	for _, r := range reports {
		for addr, sent := range r.Sent {
			if to := byAddr[addr]; to == nil || to.Delivered[r.ID] != sent {
				return false
			}
			unmatched--
		}
	}
	return unmatched == 0
}
