package wal

import (
	"path/filepath"
	"strings"
)

// Serving-layer record kinds (internal/serve).  The serving daemon
// journals its control plane — spec registrations, instance
// admissions, external announcements, completions — into per-tenant
// logs using the same framed codec as the transport records, so one
// recovery scanner serves both layers.  Values continue the transport
// kind sequence and are append-only: a kind, once assigned, never
// changes meaning.
const (
	// KSpecReg records a spec registration: Site = tenant, Sym = spec
	// name, Payload = the .wf source.  Replay re-registers (last write
	// wins, in log order).
	KSpecReg byte = KSnapSite + 1 + iota
	// KAdmit records an admitted instance: Seq = instance id, Site =
	// tenant, Sym = spec name, Note = mode ("scripted" or "external"),
	// At = seed.  An admit without a matching KDone is in-flight at
	// crash and is re-run (scripted) or re-opened (external) on
	// recovery.
	KAdmit
	// KEvent records one external announcement into a running
	// instance: Seq = instance id, Sym = event symbol, Note = "forced"
	// when the attempt was forced.  Replayed in log order to rebuild
	// the instance's observed-announcement state.
	KEvent
	// KDone records instance completion: Seq = instance id, Note =
	// outcome fingerprint.  Closes the matching KAdmit.
	KDone
)

// SafeSegment maps an arbitrary tenant or shard name to a string safe
// to use as one path segment: empty becomes "default", and anything
// outside [A-Za-z0-9._-] (plus leading dots, which would hide the
// directory or escape it) is replaced with '_'.  The mapping is
// deterministic so the same tenant always lands in the same directory
// across restarts.
func SafeSegment(name string) string {
	if name == "" {
		return "default"
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteByte(c)
		case c == '.' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// TenantDir resolves the log directory for one named log (a shard or
// the registry) of one tenant under root: root/<tenant>/<name>, both
// segments sanitized.  Per-tenant namespacing keeps one tenant's
// journal growth, snapshots, and recovery scans from touching another
// tenant's files.
func TenantDir(root, tenant, name string) string {
	return filepath.Join(root, SafeSegment(tenant), SafeSegment(name))
}
