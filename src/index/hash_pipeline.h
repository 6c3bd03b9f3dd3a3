// The hardware hash-index pipeline (paper section 4.4.1, Figures 5a/6).
//
// Point operations are decomposed into pipeline stages, each a finite-state
// machine woken by data arriving from DRAM:
//
//   KeyFetch --> Hash --+--> Install                     (INSERT)
//                       +--> HeadFetch -> KeyComp -> Traverse*  (others)
//
//  * KeyFetch  reads the search key from the transaction block.
//  * Hash      computes the Sdbm hash, checks the hazard lock table, and
//              issues the bucket-head read (destination: Install for
//              INSERTs, HeadFetch otherwise).
//  * Install   prepends the new tuple to the chain and publishes the new
//              bucket head.
//  * HeadFetch returns NotFound on empty buckets, else reads the first
//              chain node.
//  * KeyComp   compares the key; on a match it runs the visibility check,
//              otherwise hands the op to a Traverse unit.
//  * Traverse  follows the conflict chain; decoupled so a long chain never
//              blocks ops that terminate at KeyComp. Multiple units can be
//              populated for chain-heavy workloads.
//
// Hazard prevention: in-flight INSERTs that passed the Hash stage hold a
// lock on their bucket in a BRAM lock table; any op hashing to a locked
// bucket stalls at Hash until the insert's terminal stage releases it.
// Disabling `hazard_prevention` (an ablation/testing knob) reproduces the
// paper's insert-after-insert and search-after-insert hazards.
//
// Every op in flight occupies one slot of a bounded pool; the coprocessor
// enforces the experiment-level in-flight cap on top of this.
#ifndef BIONICDB_INDEX_HASH_PIPELINE_H_
#define BIONICDB_INDEX_HASH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "db/database.h"
#include "index/db_op.h"
#include "index/lock_table.h"
#include "sim/component.h"
#include "sim/config.h"
#include "sim/arena.h"
#include "sim/memory.h"

namespace bionicdb::cc {
class CcUnit;
}  // namespace bionicdb::cc

namespace bionicdb::index {

class HashPipeline {
 public:
  struct Config {
    /// Op-state slots (BRAM). This is the pipeline's internal capacity:
    /// the paper observes saturation between 12 and 16 in-flight requests
    /// ("3 or 4 in-flight requests between pipeline stages"), so the
    /// default bounds the design the same way; the coprocessor-level
    /// in-flight cap sweeps below it.
    uint32_t pool_size = 16;
    uint32_t n_traverse_units = 1;
    bool hazard_prevention = true;
    /// CC-policy extension (the paper's section 4.7 CC "blindly rejects"
    /// any access to a dirty tuple, which abort-storms hot rows like TPC-C
    /// Payment's warehouse). When non-zero, an op hitting a dirty tuple
    /// parks for up to this many cycles, re-polling the header every
    /// `dirty_poll_interval`; a timeout falls back to the blind reject
    /// (which also breaks cross-transaction wait cycles). 0 = paper
    /// behaviour.
    uint32_t dirty_wait_cycles = 0;
    uint32_t dirty_poll_interval = 16;
    /// Partition-local CC unit (engine-owned). Null or kTimestamp keeps
    /// the historical inline T/O check; kSgt/kMvcc route the terminal
    /// visibility step through cc::CcUnit::CheckAccess.
    cc::CcUnit* cc_unit = nullptr;
    /// Traversal strategy (DESIGN.md section 17). kBatched collects
    /// non-insert probes into bucket-sorted batches whose DRAM accesses
    /// coalesce into row-hit bursts; kPerOp is the paper pipeline.
    /// Inserts always take the per-op install path (they mutate the
    /// bucket chain under the hazard lock).
    TraversalMode traversal = TraversalMode::kPerOp;
    /// kBatched: probes per batch; the collector flushes when full.
    uint32_t batch_size = 8;
    /// kBatched: a partial batch flushes this many cycles after its first
    /// probe arrived. Bounds tail latency and guarantees progress when the
    /// softcore holds its commit barrier behind a collected probe.
    uint64_t batch_timeout_cycles = 128;
  };

  HashPipeline(db::Database* db, db::PartitionId partition,
               Config config, ResultQueue* results);

  /// Admits a new kIndexOp envelope into KeyFetch. False when the slot
  /// pool is exhausted.
  bool Accept(const comm::Envelope& env);

  void Tick(uint64_t now);
  bool Idle() const { return active_ == 0 && pending_in_.empty(); }

  /// Event-driven scheduling hint (contract in sim/component.h): the next
  /// cycle at which a Tick would do more than the per-cycle accounting
  /// SkipCycles reproduces. Mirrors each stage's control flow: any stage
  /// with a queued response/ack, a pending admission with a free slot, or
  /// a DRAM-reject retry (retries bump DRAM reject counters) wants the
  /// very next cycle; a Hash stage stalled behind a hazard lock and
  /// dirty-waiters between polls are quiescent.
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk-applies the busy/occupancy accounting and per-cycle stall
  /// counters/flags for skipped cycles now+1 .. now+count.
  void SkipCycles(uint64_t now, uint64_t count);

  uint32_t active_ops() const { return active_; }
  /// Ops inside the pipeline or queued at its entrance (for the
  /// coprocessor-level in-flight cap).
  uint32_t queued_ops() const {
    return active_ + uint32_t(pending_in_.size());
  }

  CounterSet& counters() { return counters_; }

  /// Per-tick stall attribution, valid after Tick(now) for that cycle:
  /// true when some op failed to make progress this cycle because a DRAM
  /// issue was rejected (backpressure) / because it stalled behind a
  /// hazard lock or a dirty tuple. The worker samples these to classify
  /// its cycle-breakdown buckets.
  bool dram_stalled() const { return tick_dram_stall_; }
  /// True when the pipeline holds work and nothing in it can act before
  /// one of its in-flight DRAM requests completes: no queued response, no
  /// retry, lock stall, dirty-tuple poll or batch timer. A state predicate
  /// (valid post-tick and across a skipped span), unlike the per-tick
  /// flags, so a RET wait on a DRAM-bound op is charged to dram_stall.
  bool dram_waiting(uint64_t now) const {
    return !Idle() && !tick_hazard_stall_ &&
           NextWakeCycle(now) == sim::kNeverWakes;
  }
  bool hazard_stalled() const { return tick_hazard_stall_; }

  /// Dumps stage counters, slot occupancy and stall totals under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  static constexpr uint32_t kNoBatch = UINT32_MAX;

  struct Op {
    comm::Envelope req;  // the kIndexOp envelope being served
    uint64_t hash = 0;
    sim::Addr bucket_slot = sim::kNullAddr;
    sim::Addr cur = sim::kNullAddr;        // current chain node
    sim::Addr new_tuple = sim::kNullAddr;  // INSERT: tuple being installed
    uint32_t batch = kNoBatch;             // kBatched: owning batch index
    bool holds_lock = false;
    bool in_use = false;
  };

  uint32_t AllocSlot(const comm::Envelope& env);
  void FreeSlot(uint32_t slot);
  /// Builds the kIndexResult reply envelope (header echoed from the
  /// request) and retires the slot.
  void Emit(uint32_t slot, isa::CpStatus status, uint64_t payload,
            cc::WriteKind kind, sim::Addr tuple_addr);
  /// Terminal visibility check + result emission for a matched tuple.
  void FinishAccess(uint64_t now, uint32_t slot, sim::Addr tuple_addr);
  /// Fire-and-forget DRAM write (bandwidth accounting only).
  void PostWrite(uint64_t now, sim::Addr addr);

  void TickKeyFetch(uint64_t now);
  void TickHash(uint64_t now);
  void TickInstall(uint64_t now);
  void TickHeadFetch(uint64_t now);
  void TickKeyComp(uint64_t now);
  void TickTraverse(uint64_t now, uint32_t unit);
  void TickDirtyWaiters(uint64_t now);

  /// Hash-stage second half: hazard check + bucket read issue. Returns
  /// false when the op must stall at the Hash stage.
  bool TryPassHashStage(uint64_t now, uint32_t slot);
  /// Compares op's key against op.cur; finishes on match or end-of-chain.
  /// Returns true when the op terminated, false when it must follow the
  /// chain (op.cur advanced to the next node).
  bool CompareOrAdvance(uint64_t now, uint32_t slot);
  /// Hands an op whose first node mismatched to the least-loaded unit.
  void EnqueueTraverse(uint32_t slot);

  /// True when the Hash stage's head-of-line op is stalled on a hazard
  /// lock held by another slot (as opposed to a rejected DRAM issue).
  bool HashBlockedOnLock() const;

  db::Database* db_;
  sim::DramMemory* dram_;
  db::PartitionId partition_;
  Config config_;
  ResultQueue* results_;

  std::vector<Op> pool_;
  std::vector<uint32_t> free_slots_;
  uint32_t active_ = 0;
  sim::RingQueue<comm::Envelope> pending_in_;

  LockTable lock_table_;

  /// A Traverse unit is an FSM that owns ONE op at a time while it chases
  /// the conflict chain (multiple memory stalls per op) — this is why the
  /// paper suggests populating several "for balanced dataflow" on
  /// chain-heavy workloads.
  struct TraverseUnit {
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    bool waiting = false;  // a chain read is in flight
    sim::MemResponseQueue resp;
  };

  sim::MemResponseQueue hash_resp_;
  sim::MemResponseQueue install_resp_;
  sim::MemResponseQueue install_ack_;  // bucket-head write completions
  sim::MemResponseQueue headfetch_resp_;
  sim::MemResponseQueue keycomp_resp_;
  std::vector<TraverseUnit> traverse_units_;

  // Head-of-line blocked item per stage (pipeline stall).
  std::optional<uint32_t> hash_blocked_;
  std::optional<uint32_t> install_blocked_;
  std::optional<uint32_t> headfetch_blocked_;

  // Ops parked on a dirty tuple under the wait-on-dirty CC policy.
  struct DirtyWaiter {
    uint32_t slot;
    sim::Addr tuple;
    uint64_t deadline;
    uint64_t next_poll;
  };
  std::vector<DirtyWaiter> dirty_waiters_;

  // --- kBatched traversal state (DESIGN.md section 17) -----------------
  //
  // A batch flows collect -> keys -> buckets -> nodes. Key reads are
  // issued at admission (they overlap collection); after the flush the
  // batch sorts its members by bucket slot and issues the bucket reads as
  // one burst train (same-row successors charged at the DRAM row-hit
  // cost), then does the same for the first chain nodes sorted by
  // address. Chain continuations beyond the first node hand off to the
  // per-op Traverse units, and every match still runs FinishAccess —
  // visibility/CC per tuple, exactly as kPerOp.
  struct Batch {
    enum class Phase : uint8_t { kIdle, kCollect, kKeys, kBuckets, kNodes };
    Phase phase = Phase::kIdle;
    std::vector<uint32_t> members;       // slots, admission order then sorted
    std::vector<uint32_t> node_members;  // members with a non-null head
    std::vector<uint32_t> deferred;      // bucket reads stalled on a hazard lock
    uint32_t next_issue = 0;             // first member without an issued read
    uint32_t outstanding = 0;            // reads in flight for this batch
    uint32_t live = 0;                   // members still in batch custody
    uint64_t flush_deadline = 0;
    BurstIssuer burst;
  };

  /// Admits the head of pending_in_ in kBatched mode: inserts go down the
  /// per-op install path, everything else joins the collecting batch.
  void TickBatchAdmit(uint64_t now);
  /// Drains batch response queues and advances every batch's phase FSM.
  void TickBatchExec(uint64_t now);
  void FlushCollect();
  void RetireBatch(Batch* b);
  /// Issues the sorted burst train for a batch's current phase; returns
  /// false on DRAM backpressure (retry next tick from the same member).
  void IssueBatchReads(uint64_t now, uint32_t batch_idx);

  std::vector<Batch> batches_;
  uint32_t collect_ = kNoBatch;  // batch currently collecting, if any
  sim::MemResponseQueue batch_key_resp_;
  sim::MemResponseQueue batch_data_resp_;
  // Batch stats, plain fields emitted only in kBatched mode so per-op
  // stats JSON stays byte-identical to pre-batch builds.
  uint64_t batches_flushed_ = 0;
  uint64_t batch_flush_full_ = 0;
  uint64_t batch_flush_timeout_ = 0;
  uint64_t batch_flush_end_ = 0;
  uint64_t burst_total_ = 0;
  uint64_t burst_coalesced_ = 0;
  Summary probes_per_batch_;

  CounterSet counters_;
  // Lazy slot handles for counters on the per-op/per-cycle hot path
  // (common/stats.h FastCounter): bound on first increment, so JSON
  // presence matches the plain string Adds they replace.
  FastCounter fc_ops_admitted_{&counters_, "ops_admitted"};
  FastCounter fc_hash_stage_{&counters_, "hash_stage_ops"};
  FastCounter fc_headfetch_stage_{&counters_, "headfetch_stage_ops"};
  FastCounter fc_keycomp_stage_{&counters_, "keycomp_stage_ops"};
  FastCounter fc_traverse_stage_{&counters_, "traverse_stage_ops"};
  FastCounter fc_install_stage_{&counters_, "install_stage_ops"};
  FastCounter fc_hash_lock_stall_{&counters_, "hash_lock_stall_cycles"};
  FastCounter fc_hash_dram_stall_{&counters_, "hash_dram_stall"};
  FastCounter fc_keyfetch_dram_stall_{&counters_, "keyfetch_dram_stall"};
  FastCounter fc_headfetch_dram_stall_{&counters_, "headfetch_dram_stall"};
  FastCounter fc_traverse_dram_stall_{&counters_, "traverse_dram_stall"};
  // Cycle accounting (plain fields: these are touched every tick, where a
  // string-keyed counter lookup would be measurable).
  uint64_t busy_cycles_ = 0;     // ticks with ops in flight or queued
  uint64_t occupancy_sum_ = 0;   // sum of active_ over busy ticks
  bool tick_dram_stall_ = false;
  bool tick_hazard_stall_ = false;
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_HASH_PIPELINE_H_
