package netwire_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/netwire"
	"repro/internal/simnet"
)

// TestMeshIdleSignal: one read of the mesh's shared tracker is a
// consistent snapshot of the whole mesh.  A token hops around three
// sites, each hop sent from inside the previous hop's handler.  A
// sampler reading IdleNow in a tight loop must never see the mesh idle
// before the last hop's handler has returned, and an IdleWait taken
// mid-chain must close once it has.
func TestMeshIdleSignal(t *testing.T) {
	const hops = 300
	sites := []simnet.SiteID{"a", "b", "c"}
	mesh, err := netwire.NewMesh("ctl", sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.UseSymbols(netwire.Events)

	var lastDone atomic.Bool
	mid := make(chan (<-chan struct{}), 1)
	var cancelMid func()
	for i, site := range sites {
		site, next := site, sites[(i+1)%len(sites)]
		mesh.Register(site, func(n actor.Net, p any) {
			hop := p.(actor.AnnounceMsg).At
			switch hop {
			case hops:
				lastDone.Store(true)
				return
			case hops / 2:
				// Registered while this handler still counts as pending,
				// so the zero-transition is still to come.
				ch, cancel := mesh.IdleWait()
				cancelMid = cancel
				mid <- ch
			}
			// Handler work before the forward: the window in which a
			// count that let go of this delivery early would read zero.
			time.Sleep(20 * time.Microsecond)
			n.Send(site, next, announce(int(hop)+1))
		})
	}

	mesh.Send("ctl", "a", announce(1))
	var stop, early atomic.Bool
	sampled := make(chan int, 1)
	go func() {
		n := 0
		for ; !stop.Load(); n++ {
			// IdleNow can turn true only after the last handler returned,
			// which is after it set lastDone, so this order of reads has
			// no false positives.
			if mesh.IdleNow() && !lastDone.Load() {
				early.Store(true)
			}
		}
		sampled <- n
	}()
	defer stop.Store(true)

	select {
	case ch := <-mid:
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("IdleWait taken mid-chain never closed")
		}
		cancelMid()
	case <-time.After(10 * time.Second):
		t.Fatal("chain never reached its midpoint")
	}
	if !lastDone.Load() {
		t.Fatal("IdleWait closed before the last hop ran")
	}
	if !mesh.IdleNow() {
		t.Error("mesh not idle after the chain")
	}
	stop.Store(true)
	if n := <-sampled; n == 0 {
		t.Error("sampler never ran")
	}
	if early.Load() {
		t.Error("IdleNow read true while the chain was still running")
	}
}
