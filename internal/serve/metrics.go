package serve

import "repro/internal/obs"

// Serving metrics: admission, shedding, completion latency (µs), and
// registry churn.  The benchmark derives p50/p99 instance-completion
// latency and sustained announcement throughput from these histograms
// via snapshot diffs.
var (
	mAdmitted   = obs.C("serve.admitted")
	mShed       = obs.C("serve.shed")
	mShedWAL    = obs.C("serve.shed_wal_lag")
	mRejected   = obs.C("serve.rejected")
	mCompleted  = obs.C("serve.completed")
	mAnnounces  = obs.C("serve.announces")
	mActive     = obs.G("serve.active")
	mInstanceUS = obs.H("serve.instance_us",
		100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
		100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000)
	mAdmitWaitUS = obs.H("serve.admit_wait_us",
		10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
		25_000, 50_000, 100_000)
	mEvictions  = obs.C("serve.plan_evictions")
	mRecompiles = obs.C("serve.plan_recompiles")
	mRecovered  = obs.C("serve.recovered_instances")
	mFrameReqs  = obs.C("serve.frame_requests")
)
