package engine

import "repro/internal/arun"

// WorkerSim returns the transport source an engine worker in sim mode
// runs its instances on: every call resets the worker's one simulator
// for the seed and hands it out again.
func WorkerSim() func(seed int64) arun.Transport {
	sim := newWorkerSim(Options{})
	return func(seed int64) arun.Transport {
		sim.Net.Reset(seed)
		return sim
	}
}
