// Package fleet is the sharded, parallel multi-user simulation runtime: it
// fans (trace × profile × policy) replay jobs across a worker pool and
// reduces per-job outcomes into mergeable aggregates without retaining
// per-user results.
//
// # Determinism
//
// Results are bit-identical for any worker count. Jobs are partitioned into
// contiguous shards by submission order; a shard is the unit of scheduling,
// and within a shard jobs run sequentially in order. Each shard folds its
// outcomes into its own accumulator, and shard accumulators merge eagerly
// in shard index order: a shard that finishes early waits until every
// earlier shard has merged. Worker count therefore only decides
// which goroutine runs a shard, never the order of any floating-point
// reduction. Changing the shard count regroups the reduction and may move
// results by float-rounding noise; changing the worker count cannot.
//
// # Memory
//
// Each worker owns one reusable sim.Engine, and each shard holds one
// accumulator. Aggregating an n-user cohort therefore costs O(workers +
// shards) live state, not O(n): every job is a source constructor, so a
// worker streams each replay's packets on demand from the job's seed, or
// decodes them from the run's TraceCache slab, folds the outcome, and
// keeps nothing.
//
// # Progress and cancellation
//
// RunSummaryLazyProgress delivers a Progress count after every completed
// shard, with a snap function that builds a merged partial Summary over
// the shards finished so far when called. It observes the run from the
// outside: partial views merge only completed shard accumulators (always
// in shard index order), so watching progress never perturbs the final
// shard-ordered reduction — the end result stays bit-identical whether or
// not anyone is listening.
//
// A run aborts early when Options.Cancel is closed. Cancellation is
// checked between jobs, so the replay in flight on each worker finishes
// before the run returns ErrCanceled; no partially folded outcome is ever
// observed.
package fleet
