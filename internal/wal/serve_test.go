package wal

import (
	"fmt"
	"path/filepath"
	"testing"
)

func TestSafeSegment(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "default"},
		{"acme", "acme"},
		{"Team-7_v2.1", "Team-7_v2.1"},
		{"../../etc", "_._.._etc"},
		{".hidden", "_hidden"},
		{"a/b\\c", "a_b_c"},
		{"tenant name!", "tenant_name_"},
		{"ünïcode", "__n__code"},
	}
	for _, c := range cases {
		if got := SafeSegment(c.in); got != c.want {
			t.Errorf("SafeSegment(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTenantDir(t *testing.T) {
	got := TenantDir("/var/wal", "acme", "shard-0")
	want := filepath.Join("/var/wal", "acme", "shard-0")
	if got != want {
		t.Errorf("TenantDir = %q, want %q", got, want)
	}
	// Hostile tenant names stay inside root.
	got = TenantDir("/var/wal", "../escape", "registry")
	if filepath.Dir(filepath.Dir(got)) != "/var/wal" {
		t.Errorf("hostile tenant escaped root: %q", got)
	}
	// Distinct tenants never collide on the same directory.
	if TenantDir("/r", "a", "x") == TenantDir("/r", "b", "x") {
		t.Error("distinct tenants collided")
	}
}

// TestServeRoundTrip: serving-layer records survive a close/reopen
// cycle and come back in order through Recovery.Serve, interleaved
// transport records still folding into their own fields.
func TestServeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KSpecReg, Site: "acme", Sym: "travel", Payload: []byte("workflow travel\n")})
	l.Append(Record{Kind: KAdmit, Seq: 7, Site: "acme", Sym: "travel", Note: "external", At: 42})
	l.Append(Record{Kind: KFire, Site: "s1", Sym: "e", At: 3}) // transport record interleaved
	l.Append(Record{Kind: KEvent, Seq: 7, Sym: "book", Note: "forced"})
	l.Append(Record{Kind: KDone, Seq: 7, Note: "fp:abc"})
	l.Sync()
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Empty() {
		t.Fatal("recovery empty after serve appends")
	}
	if len(rec.Serve) != 4 {
		t.Fatalf("Serve has %d records, want 4: %+v", len(rec.Serve), rec.Serve)
	}
	wantKinds := []byte{KSpecReg, KAdmit, KEvent, KDone}
	for i, r := range rec.Serve {
		if r.Kind != wantKinds[i] {
			t.Errorf("Serve[%d].Kind = %s, want %s", i, ServeKindName(r.Kind), ServeKindName(wantKinds[i]))
		}
	}
	if rec.Serve[1].Seq != 7 || rec.Serve[1].At != 42 || rec.Serve[1].Note != "external" {
		t.Errorf("KAdmit fields lost: %+v", rec.Serve[1])
	}
	if string(rec.Serve[0].Payload) != "workflow travel\n" {
		t.Errorf("KSpecReg payload lost: %q", rec.Serve[0].Payload)
	}
	if len(rec.Fires) != 1 || rec.Fires[0] != 3 {
		t.Errorf("interleaved KFire mis-folded: %v", rec.Fires)
	}
}

// ServeKindName names a serving-layer kind for diagnostics.
func ServeKindName(k byte) string {
	switch k {
	case KSpecReg:
		return "specreg"
	case KAdmit:
		return "admit"
	case KEvent:
		return "event"
	case KDone:
		return "done"
	default:
		return fmt.Sprintf("kind%d", k)
	}
}
