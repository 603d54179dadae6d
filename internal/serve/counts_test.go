package serve

import (
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spec"
)

// TestExternalInstanceCounts: an external instance's actor.* counts are
// published by the time CloseInstance returns, and they are the counts
// of the same announcements run through arun directly on the same
// simulator seed.
func TestExternalInstanceCounts(t *testing.T) {
	src := loadWF(t, "../../testdata/travel.wf")
	events := []string{"s_buy", "s_book", "c_book"}
	const seed = 9
	counters := []string{"actor.attempts", "actor.announcements", "actor.fires", "actor.rejects", "actor.inquiries"}
	diff := func(before obs.Snapshot) map[string]int64 {
		d := obs.Default.Snapshot().Diff(before)
		out := map[string]int64{}
		for _, name := range counters {
			m, _ := d.Get(name)
			out[name] = m.Value
		}
		return out
	}

	// Reference: the announcements as arun attempts, then the closeout.
	sp, err := spec.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := arun.NewPlan(sp, arun.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default.Snapshot()
	r, err := plan.NewRunner(engine.SimTransport(seed), arun.RunnerOptions{IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, _, err := r.Attempt(algebra.Sym(ev), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	want := diff(before)
	if want["actor.attempts"] == 0 || want["actor.fires"] == 0 {
		t.Fatalf("reference run counted nothing: %v", want)
	}

	srv, err := NewServer(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if _, rerr := srv.RegisterSpec("acme", "travel", src); rerr != nil {
		t.Fatal(rerr)
	}
	before = obs.Default.Snapshot()
	inst, rerr := srv.Launch("acme", "travel", ModeExternal, seed)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, ev := range events {
		if _, rerr := srv.Announce(inst.ID, ev, false); rerr != nil {
			t.Fatal(rerr)
		}
	}
	if _, rerr := srv.CloseInstance(inst.ID); rerr != nil {
		t.Fatal(rerr)
	}
	got := diff(before)
	for _, name := range counters {
		if got[name] != want[name] {
			t.Errorf("%s after CloseInstance: %d, want %d (the same run through arun)", name, got[name], want[name])
		}
	}
}
