package serve

import "testing"

// TestShardPlacement: sequential launches spread evenly over the
// shards, and an id always maps to the shard it was placed on.
func TestShardPlacement(t *testing.T) {
	const shards, launches = 3, 100
	srv, err := NewServer(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if _, rerr := srv.RegisterSpec("acme", "chain", chainSpec); rerr != nil {
		t.Fatal(rerr)
	}
	counts := map[*shard]int{}
	for i := 0; i < launches; i++ {
		inst, rerr := srv.Launch("acme", "chain", ModeExternal, int64(i))
		if rerr != nil {
			t.Fatal(rerr)
		}
		counts[inst.shard]++
		if sh := srv.shardFor(inst.ID); sh != inst.shard {
			t.Errorf("instance %d placed on %s, maps to %s", inst.ID, inst.shard.name, sh.name)
		}
	}
	if len(counts) != shards {
		t.Fatalf("%d launches used %d of %d shards", launches, len(counts), shards)
	}
	for sh, n := range counts {
		if n < launches/shards || n > launches/shards+1 {
			t.Errorf("%s holds %d of %d instances, want %d or %d", sh.name, n, launches, launches/shards, launches/shards+1)
		}
	}
}
