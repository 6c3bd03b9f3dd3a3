// The per-worker index coprocessor (paper Fig. 2).
//
// One instance sits beside every partition worker's softcore. It owns a
// hash pipeline and a skiplist pipeline over the worker's partition, routes
// each DB instruction to the right pipeline by table schema, and enforces
// the global in-flight request cap (the knob swept in Figures 10/11).
// Foreground requests (local softcore) and background requests (remote
// workers, via the on-chip channels) overlap freely inside the pipelines.
#ifndef BIONICDB_INDEX_COPROCESSOR_H_
#define BIONICDB_INDEX_COPROCESSOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "db/database.h"
#include "index/db_op.h"
#include "index/hash_pipeline.h"
#include "index/skiplist_pipeline.h"
#include "sim/component.h"
#include "sim/config.h"

namespace bionicdb::index {

class IndexCoprocessor : public sim::Component {
 public:
  struct Config {
    uint32_t max_inflight = 16;
    /// Per-pipeline traversal strategy (DESIGN.md section 17). Propagated
    /// into both pipeline configs at construction, alongside the batch
    /// collector knobs below.
    TraversalMode traversal = TraversalMode::kPerOp;
    uint32_t batch_size = 8;
    uint64_t batch_timeout_cycles = 128;
    HashPipeline::Config hash;
    SkiplistPipeline::Config skiplist;
    /// Partition-local CC unit (engine-owned). Propagated into both
    /// pipeline configs at construction; also the hook for the cc stats
    /// subtree in CollectStats.
    cc::CcUnit* cc_unit = nullptr;
  };

  IndexCoprocessor(db::Database* db, db::PartitionId partition,
                   Config config);

  /// Submits a kIndexOp envelope. Returns false when the coprocessor is at
  /// its in-flight cap (the issuing port must retry next cycle).
  bool Submit(const comm::Envelope& env);

  /// Completed kIndexResult reply envelopes, ready for CP-register
  /// writeback or response routing. The worker drains this queue.
  ResultQueue& results() { return results_; }

  void Tick(uint64_t cycle) override;
  bool Idle() const override {
    return hash_->Idle() && skiplist_->Idle() && results_.empty();
  }

  /// Earliest wake of the two pipelines. Queued results_ don't factor in:
  /// the worker (which drains them) reports its own now + 1 hint while
  /// they are pending.
  uint64_t NextWakeCycle(uint64_t now) const override {
    return std::min(hash_->NextWakeCycle(now), skiplist_->NextWakeCycle(now));
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    hash_->SkipCycles(now, count);
    skiplist_->SkipCycles(now, count);
  }

  uint32_t inflight() const {
    return hash_->queued_ops() + skiplist_->queued_ops();
  }

  HashPipeline& hash_pipeline() { return *hash_; }
  SkiplistPipeline& skiplist_pipeline() { return *skiplist_; }
  CounterSet& counters() { return counters_; }

  /// Per-tick stall attribution rolled up over both pipelines (valid after
  /// this coprocessor's Tick for the current cycle). The worker samples
  /// these to classify its cycle-breakdown buckets.
  bool dram_stalled() const {
    return hash_->dram_stalled() || skiplist_->dram_stalled();
  }
  bool hazard_stalled() const {
    return hash_->hazard_stalled() || skiplist_->hazard_stalled();
  }
  /// Holds work that is waiting only on in-flight DRAM requests: every
  /// non-idle pipeline is dram_waiting and no result awaits routing.
  /// Nothing in such a coprocessor can act before one of its own reads
  /// completes, and none completes before its lane's next completion, so
  /// a true answer is reused until then (or until a Submit). The worker
  /// asks on every RET-wait cycle, and re-scanning both pipelines each
  /// time would dominate the host cost of a DRAM-bound cycle.
  bool dram_waiting(uint64_t now) const {
    if (now < dram_waiting_until_) {
      assert(DramWaitingNow(now));
      return true;
    }
    if (!DramWaitingNow(now)) return false;
    const sim::DramMemory& dram = *db_->dram();
    dram_waiting_until_ =
        dram.LaneNextWake(dram.partitioned() ? partition_ : 0, now);
    return true;
  }

  /// Dumps coprocessor-level counters plus both pipelines under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  bool DramWaitingNow(uint64_t now) const {
    return results_.empty() && !Idle() &&
           (hash_->Idle() || hash_->dram_waiting(now)) &&
           (skiplist_->Idle() || skiplist_->dram_waiting(now));
  }

  db::Database* db_;
  db::PartitionId partition_;
  /// dram_waiting() holds true for every cycle before this one.
  mutable uint64_t dram_waiting_until_ = 0;
  Config config_;
  ResultQueue results_;
  std::unique_ptr<HashPipeline> hash_;
  std::unique_ptr<SkiplistPipeline> skiplist_;
  CounterSet counters_;
  // Per-op admission counters, bumped for every accepted envelope
  // (common/stats.h FastCounter).
  FastCounter fc_foreground_ops_{&counters_, "foreground_ops"};
  FastCounter fc_background_ops_{&counters_, "background_ops"};
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_COPROCESSOR_H_
