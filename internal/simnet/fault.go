package simnet

import "hash/fnv"

// FaultPlan is a seeded, deterministic chaos schedule for the message
// layer: per-frame drop / duplicate / delay / reorder verdicts plus
// timed link partitions.  The same plan drives both transports — the
// simulator applies it inside Send (modelling the reliable link layer
// by scheduling retransmissions in virtual time), and internal/netwire
// applies it to outbound TCP frames (where real retransmission timers
// recover the losses).  Because every verdict is a pure function of
// (seed, link, sequence number, attempt), a plan is reproducible,
// while retries see fresh verdicts and therefore always get through
// eventually.
type FaultPlan struct {
	// Seed makes the plan deterministic.
	Seed int64
	// Drop, Dup, Delay, Reorder are per-frame probabilities in [0,1],
	// evaluated in that order on disjoint probability mass.
	Drop, Dup, Delay, Reorder float64
	// DelayMax bounds the extra latency of delayed frames (µs).  Zero
	// selects 2000µs.
	DelayMax Time
	// ReorderDelay is the extra latency applied to reordered frames so
	// later frames overtake them (µs).  Zero selects 1500µs.
	ReorderDelay Time
	// RTO is the base retransmission timeout of the modelled reliable
	// link layer (µs, exponential backoff).  Zero selects 1000µs.
	RTO Time
	// Partitions are timed bidirectional link outages.
	Partitions []Partition
}

// Partition blocks all frames between sites A and B (both directions)
// from time From until time Until, after which the link heals and the
// buffered frames retry.
type Partition struct {
	A, B        SiteID
	From, Until Time
}

// Verdict is the fate of one transmission attempt.
type Verdict struct {
	// Drop: the frame is lost; the link layer retries after an RTO.
	Drop bool
	// Dup: the frame is delivered twice; receiver dedup suppresses one.
	Dup bool
	// Extra is additional latency (delay and reorder faults).
	Extra Time
}

// maxFaultAttempts caps how many consecutive transmission attempts a
// plan may sabotage; beyond it the frame is delivered faithfully, so
// at-least-once delivery terminates deterministically even under
// Drop=1 plans.
const maxFaultAttempts = 20

func (fp *FaultPlan) delayMax() Time {
	if fp.DelayMax > 0 {
		return fp.DelayMax
	}
	return 2000
}

func (fp *FaultPlan) reorderDelay() Time {
	if fp.ReorderDelay > 0 {
		return fp.ReorderDelay
	}
	return 1500
}

// RTOFor returns the retransmission timeout for the given attempt:
// exponential backoff from the base, capped at 32×.
func (fp *FaultPlan) RTOFor(attempt int) Time {
	base := fp.RTO
	if base <= 0 {
		base = 1000
	}
	if attempt > 5 {
		attempt = 5
	}
	return base << attempt
}

// hash returns a deterministic uniform value in [0,1) plus a raw
// 64-bit residue for secondary draws.
func (fp *FaultPlan) hash(from, to SiteID, seq uint64, attempt int, salt byte) (float64, uint64) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(fp.Seed))
	h.Write([]byte{salt})
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	h.Write([]byte{0})
	put(seq)
	put(uint64(attempt))
	v := h.Sum64()
	return float64(v>>11) / float64(1<<53), v
}

// VerdictFor decides the fate of one transmission attempt of a frame.
// Attempts at or beyond the fault cap are always delivered faithfully.
// Netwire draws it once per transmission, keyed by the first sequence
// number carried, and strikes every record of the batch as a unit.
func (fp *FaultPlan) VerdictFor(from, to SiteID, seq uint64, attempt int) Verdict {
	if fp == nil || attempt >= maxFaultAttempts {
		return Verdict{}
	}
	p, raw := fp.hash(from, to, seq, attempt, 'v')
	return fp.verdict(p, raw)
}

// verdict maps a uniform draw onto the plan's disjoint probability
// masses.
func (fp *FaultPlan) verdict(p float64, raw uint64) Verdict {
	switch {
	case p < fp.Drop:
		return Verdict{Drop: true}
	case p < fp.Drop+fp.Dup:
		return Verdict{Dup: true}
	case p < fp.Drop+fp.Dup+fp.Delay:
		return Verdict{Extra: 1 + Time(raw%uint64(fp.delayMax()))}
	case p < fp.Drop+fp.Dup+fp.Delay+fp.Reorder:
		return Verdict{Extra: fp.reorderDelay()}
	default:
		return Verdict{}
	}
}

// Blocked reports whether the link between the two sites is inside a
// partition window at the given time, and when it heals.  Overlapping
// windows are merged by taking the latest heal time reachable from t.
func (fp *FaultPlan) Blocked(a, b SiteID, t Time) (heal Time, blocked bool) {
	if fp == nil {
		return 0, false
	}
	heal = t
	for changed := true; changed; {
		changed = false
		for _, p := range fp.Partitions {
			same := (p.A == a && p.B == b) || (p.A == b && p.B == a)
			if same && heal >= p.From && heal < p.Until {
				heal = p.Until
				blocked = true
				changed = true
			}
		}
	}
	return heal, blocked
}
