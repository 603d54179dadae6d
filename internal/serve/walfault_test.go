package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/wal"
)

// failSync is a wal.File whose every fsync fails with EIO.
type failSync struct{ wal.File }

func (failSync) Sync() error { return syscall.EIO }

// TestPoisonedShardAnswers503: once a shard log's fsync fails, the
// shard fails closed.  The launch whose admission could not be made
// durable is answered 503, and so is every later launch, announce and
// close placed on that shard; no verdict is published for work whose
// journal record never became durable.
func TestPoisonedShardAnswers503(t *testing.T) {
	srv, err := NewServer(Config{Shards: 1, WALRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	chain := "workflow chain\ndep c1: ~b + a . b\nevent a site=s1\nevent b site=s2\n"
	if _, rerr := srv.RegisterSpec("acme", "chain", chain); rerr != nil {
		t.Fatal(rerr)
	}
	inst, rerr := srv.Launch("acme", "chain", ModeExternal, 5)
	if rerr != nil {
		t.Fatal(rerr)
	}
	tl, err := srv.log("acme", inst.shard.name)
	if err != nil {
		t.Fatal(err)
	}
	tl.log.WrapFile(func(f wal.File) wal.File { return failSync{f} })

	hs := httptest.NewServer(NewHandler(srv))
	defer hs.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	launch := `{"spec":"chain","mode":"external"}`
	if got := post("/v1/instances?tenant=acme", launch); got != 503 {
		t.Fatalf("launch whose admission fsync failed: %d, want 503", got)
	}
	if tl.log.Sync() == nil {
		t.Fatal("the failed fsync did not poison the shard log")
	}
	if got := post("/v1/instances?tenant=acme", launch); got != 503 {
		t.Fatalf("launch on the failed shard: %d, want 503", got)
	}
	id := strconv.FormatUint(inst.ID, 10)
	if got := post("/v1/instances/"+id+"/announce", `{"event":"a"}`); got != 503 {
		t.Fatalf("announce on the failed shard: %d, want 503", got)
	}
	if got := post("/v1/instances/"+id+"/close", ``); got != 503 {
		t.Fatalf("close on the failed shard: %d, want 503", got)
	}
	srv.Drain()
	if seq := srv.verdicts.Seq(); seq != 0 {
		t.Errorf("%d verdicts published from a shard whose log failed", seq)
	}
}
