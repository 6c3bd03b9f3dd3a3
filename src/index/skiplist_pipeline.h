// The hardware skiplist pipeline (paper section 4.4.2, Figures 5b/7).
//
// The skiplist's levels are partitioned into exclusive ranges, one per
// pipeline stage; stage 0 owns the top levels and the last stage owns level
// 0. An op traverses horizontally inside a stage's range (each new tower
// visited costs one DRAM access; drilling down on a cached tower is free)
// and is handed to the next stage when it leaves the range. Unlike the
// hash pipeline, a traversal stage works on ONE op at a time — horizontal
// pointer chasing keeps a stage occupied across multiple memory stalls, so
// index parallelism is bound by pipeline depth (this reproduces the Fig.
// 11a saturation at ~8 in-flight ops).
//
// Range binding: upper stages cover more levels than lower ones, since
// towers thin out exponentially toward the top (the paper's "balanced
// pipelining" guidance).
//
// INSERT records its insert path — predecessor AND successor per level
// below the new tower's height — in stage BRAM, and the bottom stage
// installs the tower from that recorded path. Hazard prevention locks each
// recorded (pred tower, level) in a lock table; any other in-flight INSERT
// reaching a locked position stalls, then re-reads the tower before
// proceeding. With prevention disabled, racing inserts overwrite each
// other's recorded paths and towers vanish from upper levels (Fig. 7a).
//
// SCAN is stall-free: it takes no locks, reaches the bottom level through
// the normal stages (which serialise it with respect to all earlier
// inserts), and is handed to a dedicated scanner module that walks the
// bottom list collecting committed visible tuples into the transaction
// block's result buffer. Scanners are the scan-throughput bottleneck; the
// number of scanner units is configurable (paper section 5.5 estimates
// "at least 5" to catch the software skiplist).
#ifndef BIONICDB_INDEX_SKIPLIST_PIPELINE_H_
#define BIONICDB_INDEX_SKIPLIST_PIPELINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "db/database.h"
#include "db/skiplist_layout.h"
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

class SkiplistPipeline {
 public:
  struct Config {
    uint32_t pool_size = 64;
    uint32_t n_stages = 8;
    uint32_t n_scanners = 1;
    bool hazard_prevention = true;
    /// Traversal strategy (DESIGN.md section 17). kBatched collects
    /// non-insert probes into level-wise batches: one timed DRAM fetch per
    /// unique tower per batch (members walk shared fetches functionally),
    /// issued key-sorted so the BurstIssuer coalesces same-row reads.
    /// Inserts keep the staged per-op path in both modes — the recorded
    /// insert path and hazard locks do not batch.
    TraversalMode traversal = TraversalMode::kPerOp;
    uint32_t batch_size = 8;
    uint64_t batch_timeout_cycles = 128;
    /// Partition-local CC unit (engine-owned); see HashPipeline::Config.
    cc::CcUnit* cc_unit = nullptr;
  };

  SkiplistPipeline(db::Database* db, db::PartitionId partition,
                   Config config, ResultQueue* results);

  /// Admits a new kIndexOp envelope. False when the slot pool is
  /// exhausted.
  bool Accept(const comm::Envelope& env);

  void Tick(uint64_t now);
  bool Idle() const { return active_ == 0 && pending_in_.empty(); }

  /// Event-driven scheduling hint (contract in sim/component.h). Any stage
  /// or scanner holding cached work, a queued response, a pending
  /// admission with a free slot, or a DRAM-reject retry wants the next
  /// cycle; stages stalled on hazard path locks and installs waiting only
  /// on write acks are quiescent until another block's wake point.
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk-applies busy/occupancy accounting and per-cycle lock-stall
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
  /// issue was rejected / because it stalled behind a hazard path lock.
  bool dram_stalled() const { return tick_dram_stall_; }
  /// True when the pipeline holds work and nothing in it can act before
  /// one of its in-flight DRAM requests completes: no queued response, no
  /// retry, path-lock stall or batch timer. A state predicate
  /// (valid post-tick and across a skipped span), unlike the per-tick
  /// flags, so a RET wait on a DRAM-bound op is charged to dram_stall.
  bool dram_waiting(uint64_t now) const {
    return !Idle() && !tick_hazard_stall_ &&
           NextWakeCycle(now) == sim::kNeverWakes;
  }
  bool hazard_stalled() const { return tick_hazard_stall_; }

  /// Dumps stage counters, slot occupancy and stall totals under `scope`.
  void CollectStats(StatsScope scope) const;

  /// Level range covered by stage `i` (exposed for tests).
  std::pair<int, int> StageRange(uint32_t i) const {
    return {stages_[i].lo, stages_[i].hi};
  }

  /// Scans ever assigned to scanner `i` (exposed for tests: the
  /// shortest-queue/round-robin dispatcher must not starve a scanner).
  uint64_t ScannerDispatched(uint32_t i) const {
    return scanners_[i].dispatched;
  }

 private:
  /// Number of 64-bit words in a full tower snapshot: 3 header words +
  /// every possible link slot.
  static constexpr uint32_t kTowerSnapshotWords =
      3 + db::kSkiplistMaxHeight;

  struct Op {
    comm::Envelope req;  // the kIndexOp envelope being served
    std::vector<uint8_t> key;
    sim::Addr cur = sim::kNullAddr;
    int level = 0;
    uint8_t new_height = 0;  // INSERT
    sim::Addr preds[db::kSkiplistMaxHeight] = {};
    sim::Addr succs[db::kSkiplistMaxHeight] = {};
    std::vector<uint64_t> cur_links;  // snapshot of cur's link words
    std::vector<uint64_t> held_locks;
    // Install state (delayed link writes; locks held until all complete).
    sim::Addr new_tuple = sim::kNullAddr;
    uint32_t acks_left = 0;
    std::vector<std::pair<sim::Addr, uint64_t>> writes_left;
    // Scanner state.
    uint32_t collected = 0;
    bool in_use = false;
  };

  enum class Wait : uint8_t {
    kNone,      // ready to advance with cached data
    kLoad,      // waiting for a (re)load of op.cur
    kNext,      // waiting for the candidate next tower
    kLockMove,  // stalled on a locked next tower (will re-read it)
    kLockDown,  // stalled on a locked pred (will re-read op.cur)
  };

  struct Stage {
    int hi = 0;
    int lo = 0;
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    Wait wait = Wait::kNone;
    sim::Addr pending_next = sim::kNullAddr;
    sim::MemResponseQueue resp;
  };

  struct Scanner {
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    bool waiting = false;
    sim::MemResponseQueue resp;
    uint64_t dispatched = 0;  // scans ever assigned to this scanner
  };

  /// Departed-member sentinel inside Batch::members (emitted mid-batch or
  /// handed to a scanner; the pool slot may already be reused).
  static constexpr uint32_t kNoMember = UINT32_MAX;

  /// One level-wise batch context (kBatched). Four contexts overlap so a
  /// flushed batch walks levels while the next one collects — the
  /// inter-operation pipelining leg of the bench ablation.
  struct Batch {
    enum class Phase : uint8_t { kIdle, kCollect, kKeys, kWalk };
    /// Per-batch tower cache entry: queued/in-flight timed fetches and the
    /// functional outcome once the response lands.
    struct Tower {
      enum class St : uint8_t { kQueued, kInflight, kReady, kCorrupt };
      St st = St::kQueued;
      bool verify = true;  // heads have no integrity guard
    };
    Phase phase = Phase::kIdle;
    std::vector<uint32_t> members;  // key-sorted after flush; kNoMember gaps
    uint32_t outstanding = 0;       // key reads / tower fetches in flight
    uint32_t live = 0;              // members still walking
    int level = 0;                  // current level of the level-wise walk
    uint64_t flush_deadline = 0;
    std::vector<sim::Addr> fetch_queue;  // unissued tower fetches, in
                                         // member-sorted discovery order
    std::map<sim::Addr, Tower> towers;
    BurstIssuer burst;
    sim::MemResponseQueue key_resp;
    sim::MemResponseQueue fetch_resp;
  };

  uint32_t AllocSlot(const comm::Envelope& env);
  void FreeSlot(uint32_t slot);
  void Emit(uint32_t slot, isa::CpStatus status, uint64_t payload,
            cc::WriteKind kind, sim::Addr tuple_addr);
  void PostWrite(uint64_t now, sim::Addr addr);

  db::SkiplistLayout* Layout(const Op& op) const;
  static std::vector<uint64_t> LinksFromSnapshot(
      const sim::MemWords& words);

  void TickKeyFetch(uint64_t now);
  void TickStage(uint64_t now, uint32_t stage_idx);
  void TickScanner(uint64_t now, uint32_t scanner_idx);
  void TickInstalls(uint64_t now);

  // --- kBatched traversal (DESIGN.md section 17) -----------------------
  /// Admits one op per cycle in batched mode: inserts take the per-op
  /// key-fetch path; probes join the collecting batch (key read issued at
  /// admission through the batch's BurstIssuer). Also applies the
  /// collector's flush timeout.
  void TickBatchAdmit(uint64_t now);
  /// Drains batch responses and drives every non-idle batch's walk.
  void TickBatchExec(uint64_t now);
  /// Seals the collecting batch: no more members, walk starts once the
  /// outstanding key reads land.
  void FlushCollect();
  void RetireBatch(Batch* b);
  /// Records a once-per-batch timed fetch of `addr` (deduped through the
  /// batch tower cache); `verify` guards the integrity check (heads have
  /// no tuple guard).
  void RequestFetch(Batch* b, sim::Addr addr, bool verify);
  /// Advances every live member at the batch's current level using the
  /// tower cache, queues missing fetches, and applies the per-level
  /// barrier (descend / terminal round / retire). Returns true while
  /// repeated invocation this tick can still make progress.
  bool WalkBatch(uint64_t now, Batch* b);

  /// Drives the op inside a stage until it needs DRAM, stalls on a lock, or
  /// leaves the stage.
  void Advance(uint64_t now, Stage* stage);
  /// Handles the arrival of the candidate next tower in `resp_data`.
  void NextArrived(uint64_t now, Stage* stage,
                   const sim::MemWords& words);
  /// Hands the op to the next stage / terminal action when level < lo.
  void LeaveStage(uint64_t now, Stage* stage);
  /// Bottom-of-list terminal work: point-op visibility, insert install, or
  /// scanner hand-off.
  void Terminal(uint64_t now, uint32_t slot);
  void FinishAccess(uint64_t now, uint32_t slot, sim::Addr tuple_addr);

  int CompareProbe(const Op& op, sim::Addr tower) const;

  db::Database* db_;
  sim::DramMemory* dram_;
  db::PartitionId partition_;
  Config config_;
  ResultQueue* results_;

  std::vector<Op> pool_;
  std::vector<uint32_t> free_slots_;
  uint32_t active_ = 0;
  sim::RingQueue<comm::Envelope> pending_in_;
  sim::MemResponseQueue keyfetch_resp_;

  std::vector<Stage> stages_;
  std::vector<Scanner> scanners_;
  uint32_t scanner_rr_ = 0;

  // Batched-traversal state (empty/zero in kPerOp mode).
  std::vector<Batch> batches_;
  uint32_t collect_ = UINT32_MAX;  // batch index currently collecting
  // Batch stats (plain fields, emitted only in kBatched mode so per-op
  // stats JSON stays identical to the per-op-only build).
  uint64_t batches_flushed_ = 0;
  uint64_t batch_flush_full_ = 0;
  uint64_t batch_flush_timeout_ = 0;
  uint64_t batch_flush_end_ = 0;
  uint64_t burst_total_ = 0;
  uint64_t burst_coalesced_ = 0;
  Summary probes_per_batch_;

  // Inserts whose link writes are in flight (locks still held).
  sim::MemResponseQueue install_ack_;
  std::vector<uint32_t> installing_;

  LockTable lock_table_;
  CounterSet counters_;
  // Cycle accounting (plain fields: touched every tick, where a
  // string-keyed counter lookup would be measurable).
  uint64_t busy_cycles_ = 0;     // ticks with ops in flight or queued
  uint64_t occupancy_sum_ = 0;   // sum of active_ over busy ticks
  bool tick_dram_stall_ = false;
  bool tick_hazard_stall_ = false;
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_SKIPLIST_PIPELINE_H_
