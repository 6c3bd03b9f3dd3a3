// The BionicDB softcore (paper sections 4.3 and 4.5).
//
// A deliberately simple RISC-style core: five execution steps per CPU
// instruction (IFetch/Decode/Execute/Memory/Writeback, charged as a fixed
// cycle cost — the paper rules out instruction pipelining and out-of-order
// execution), 256 general-purpose and 256 coprocessor registers on BRAM,
// base-offset addressing, and two extra steps (Prepare/Dispatch) that
// forward DB instructions asynchronously to the index coprocessor or to a
// remote worker through the on-chip channels.
//
// Transaction interleaving (section 4.5): incoming transactions join the
// current batch while GP/CP registers remain (register renaming = adding a
// per-transaction base); the logic phase of each transaction runs to YIELD
// and then switches (10 cycles) to the next without waiting for outstanding
// DB instructions. When the batch closes, the commit phase revisits every
// transaction in admission order: the commit handler RETs each CP register
// (blocking), and any error status diverts control to the abort handler.
// COMMIT/ABORT finally publish or roll back the hardware-tracked write-set
// and stamp the transaction block's commit state.
//
// Parameter window: at admission the softcore reads the words its program
// LOADs through r0 (isa::Program::param_offsets — host-written parameters
// and the transaction's own UNDO slots) into a per-context on-chip copy.
// A LOAD of such a word then costs one instruction once its fill has
// returned (or the transaction's own STORE to it has landed) instead of a
// blocking DRAM round trip. STOREs stay write-through, so the block in
// DRAM never diverges from the window.
#ifndef BIONICDB_CORE_SOFTCORE_H_
#define BIONICDB_CORE_SOFTCORE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "db/catalogue.h"
#include "db/database.h"
#include "db/txn_block.h"
#include "db/types.h"
#include "comm/envelope.h"
#include "isa/program.h"
#include "sim/component.h"
#include "sim/config.h"
#include "sim/arena.h"
#include "sim/memory.h"

namespace bionicdb::cc {
class CcUnit;
}  // namespace bionicdb::cc

namespace bionicdb::core {

class Softcore {
 public:
  struct Config {
    bool interleaving = true;
    /// Future-work extension (paper section 4.5 discussion): when a RET
    /// blocks on a pending CP register during the LOGIC phase, save the
    /// context and switch to another transaction instead of stalling. The
    /// paper conjectures this "might be helpful to deal with heavy data
    /// dependency" (TPC-C); the ablation_dynamic bench quantifies it.
    bool dynamic_switching = false;
    uint32_t max_contexts = 32;
    uint32_t n_gp_regs = 256;
    uint32_t n_cp_regs = 256;

    /// Multi-chip two-phase commit (DESIGN.md section 14). Workers are
    /// grouped into chips of `workers_per_chip` (matching the fabric's
    /// ClusterConfig); a COMMIT/ABORT whose write-set touches a foreign
    /// chip runs 2PC — PrepareReq/PrepareAck voting, then CommitReq
    /// carrying the decision plus that chip's write-set entries — instead
    /// of the fire-and-forget kMemOp publication used within a chip.
    /// 0 = single chip, 2PC never engages.
    struct TwoPc {
      uint32_t workers_per_chip = 0;
      /// Coordinator abort deadline for the vote phase. Must exceed the
      /// inter-chip round trip plus fabric retransmit timeouts by a wide
      /// margin or fault-free transactions spuriously abort.
      uint64_t prepare_timeout_cycles = 50000;
      /// Decision re-send period while CommitAcks are missing. The
      /// decision can never be abandoned (participants must learn it), so
      /// this resends forever; exactly-once apply lives at the
      /// participant. Keep above the fabric retransmit timeout.
      uint64_t decision_resend_cycles = 8192;
      /// Worker-side cap on in-flight cross-chip requests (kIndexOp /
      /// kPrepareReq / kCommitReq); a full window rejects the Issue and
      /// the softcore retries, charged as interchip backpressure.
      uint32_t interchip_window = 32;
    };
    TwoPc two_pc;

    /// Partition-local concurrency-control unit (engine-owned; see
    /// cc/cc_unit.h). Null or kTimestamp mode keeps the historical T/O
    /// behaviour bit-for-bit; kSgt/kMvcc route transaction lifecycle
    /// events (begin / commit-validate / finish) through the unit.
    cc::CcUnit* cc_unit = nullptr;
  };

  struct BatchStats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t batches = 0;
    uint64_t context_switches = 0;
    uint64_t instructions = 0;
  };

  /// Parameter-window capacity in 8-byte words per context (one ready bit
  /// per word in a 64-bit mask). A program's further param_offsets() go
  /// to DRAM as ordinary LOADs.
  static constexpr uint32_t kParamWindowWords = 64;

  Softcore(db::Database* db, db::WorkerId worker_id,
           const sim::TimingConfig& timing, Config config,
           comm::IssuePort* port);

  /// Queues a transaction block for execution.
  void SubmitBlock(sim::Addr block_base) { input_queue_.push_back(block_base); }
  size_t input_queue_depth() const { return input_queue_.size(); }

  /// CP-register writeback for a completed DB instruction (a kIndexResult
  /// envelope, local or off the fabric). Appends to the owning
  /// transaction's write-set.
  void WriteCp(const comm::Envelope& result);

  /// Resumes a LOAD stalled on a remote raw-memory fetch (partitioned DRAM:
  /// the address lives in another partition's arena, so the value arrives
  /// as a fabric response instead of a local DRAM completion). The worker
  /// routes kMemResult envelopes here rather than through WriteCp.
  void CompleteRemoteLoad(uint64_t now, const comm::Envelope& result);

  /// 2PC coordinator ack intake (kPrepareAck / kCommitAck envelopes routed
  /// by the worker). Acks for a transaction that already finished — late
  /// duplicates after fabric retransmission — are counted and dropped.
  void HandlePrepareAck(uint64_t now, const comm::Envelope& env);
  void HandleCommitAck(uint64_t now, const comm::Envelope& env);

  void Tick(uint64_t now);
  bool Idle() const;

  /// Event-driven scheduling hint (contract in sim/component.h): the
  /// fixed-cost execution timer is a pure no-op until busy_until_; stalled
  /// states that spin a per-cycle counter (RET wait, COMMIT/ABORT result
  /// drain, parameter-fill wait) are quiescent-with-bulk-accounting and
  /// wake via the worker's own hints (result routing fills the CP
  /// registers) or the DRAM lane's completion of the awaited fill.
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk-applies the per-cycle counters a quiescent span would have
  /// accumulated (ret/commit/abort/parameter-fill wait counters).
  void SkipCycles(uint64_t now, uint64_t count);

  const BatchStats& stats() const { return stats_; }
  CounterSet& counters() { return counters_; }

  /// What the core is doing at cycle `now`, for the worker's per-cycle
  /// breakdown. Exactly one kind per cycle; kBusy wins while the
  /// fixed-cost execution timer is running (instruction retirement /
  /// context switch in progress).
  enum class WaitKind : uint8_t {
    kBusy,             // executing / switching
    kDramWait,         // ingest or LOAD waiting on (or rejected by) DRAM
    kCpWait,           // RET blocked on a pending CP register
    kDispatchBlocked,  // local coprocessor at its in-flight cap
    kInterchipWait,    // 2PC vote/decision round trip or full send window
    kIdle,             // no work
  };
  WaitKind wait_kind(uint64_t now) const {
    if (busy_until_ > now) return WaitKind::kBusy;
    switch (state_) {
      case State::kRunning:
      case State::kSwitching:
        return WaitKind::kBusy;
      case State::kIngestRetry:
      case State::kFetchBlock:
      case State::kMemWait:
      case State::kParamWait:
        return WaitKind::kDramWait;
      case State::kWaitCp:
        return WaitKind::kCpWait;
      case State::kDispatchRetry:
        return ChipOfWorker(pending_partition_) != ChipOfWorker(worker_id_)
                   ? WaitKind::kInterchipWait
                   : WaitKind::kDispatchBlocked;
      case State::kTwoPcPrepare:
      case State::kTwoPcDecide:
        return WaitKind::kInterchipWait;
      case State::kIdle:
        return WaitKind::kIdle;
    }
    return WaitKind::kIdle;
  }

  /// Chip index of a worker under the 2PC grouping (0 when off).
  uint32_t ChipOfWorker(uint32_t w) const {
    return config_.two_pc.workers_per_chip > 0
               ? w / config_.two_pc.workers_per_chip
               : 0;
  }

  /// Dumps execution counters and batch statistics under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  enum class State : uint8_t {
    kIdle,        // pick next work item
    kIngestRetry,  // ingest read rejected by DRAM backpressure; retry
    kFetchBlock,  // waiting for the transaction-block ingest read
    kRunning,     // executing instructions
    kMemWait,     // LOAD waiting on DRAM
    kParamWait,   // LOAD waiting on its parameter-window fill
    kWaitCp,      // RET blocked on a pending CP register
    kDispatchRetry,  // local coprocessor at capacity / send window full
    kSwitching,   // context switch in progress
    kTwoPcPrepare,  // 2PC coordinator: sending PrepareReqs / awaiting votes
    kTwoPcDecide,   // 2PC coordinator: sending decision / awaiting acks
  };

  enum class Phase : uint8_t { kLogic, kHandlers };

  struct TxnContext {
    bool in_use = false;
    sim::Addr block_base = sim::kNullAddr;
    const db::ProcedureInfo* proc = nullptr;
    uint64_t pc = 0;
    uint32_t gp_base = 0;
    uint32_t cp_base = 0;
    db::Timestamp ts = 0;
    uint32_t outstanding_db = 0;
    bool aborted = false;
    bool logic_done = false;
    bool finished = false;
    // Dynamic scheduling: parked on a RET whose CP register is pending.
    bool waiting_cp = false;
    uint32_t wait_cp_index = 0;
    // Status-register flags (saved/restored with the context, section 4.3).
    bool flag_eq = false;
    bool flag_lt = false;
    // Parameter window: word i holds proc->program.param_offsets()[i].
    // Buffered = its fill read was accepted; ready = the fill returned or
    // this transaction STOREd the word. fill_tag matches fills to this
    // admission (a slot can be reused while an older fill is in flight).
    std::array<uint64_t, kParamWindowWords> param_words{};
    uint64_t param_buffered = 0;
    uint64_t param_ready = 0;
    uint64_t fill_tag = 0;
    std::vector<cc::WriteSetEntry> write_set;
  };

  // One instruction executed per call; manages state transitions.
  void Step(uint64_t now);
  /// Starts ingesting the next input transaction if the batch has room.
  bool TryAdmit(uint64_t now);
  /// Called when the ingest read returns: builds the context, begins logic.
  void BeginTxn(uint64_t now);
  /// Issues the parameter-window fill reads for a freshly admitted context.
  void IssueParamFills(uint64_t now, uint32_t slot);
  /// Copies every returned fill into its (still current) context's window.
  void DrainParamFills();
  /// Window bit of the r0-relative word at `offset`, or -1 when that word
  /// is not buffered for the current context.
  int ParamWord(const TxnContext& ctx, int64_t offset) const;
  /// Executes one instruction of the current context.
  void Execute(uint64_t now);
  void ExecuteDb(uint64_t now, const isa::Instruction& inst);
  void FinishTxn(uint64_t now, bool committed);
  /// Moves to the next phase-2 context or closes the batch.
  void AdvanceCommitPhase(uint64_t now);
  void StartSwitch(uint64_t now, uint32_t next_ctx, Phase phase);

  uint64_t& Gp(uint32_t ctx, isa::Reg r);
  /// Builds a raw-memory kMemOp envelope (remote LOAD/STORE/commit
  /// publication) addressed by the caller to the partition owning `addr`.
  comm::Envelope MakeMemOp(comm::MemOp::Kind kind, sim::Addr addr);
  /// Engages 2PC for the current context's COMMIT/ABORT when its write-set
  /// spans foreign chips: groups those entries per participant worker and
  /// enters the vote phase (commit) or goes straight to the decision phase
  /// (abort — no votes needed). Returns false when 2PC is off or all
  /// entries are chip-local, leaving the caller on the classic path.
  bool StartTwoPc(uint64_t now, bool want_commit);
  /// Applies the decision to every chip-local write-set entry (existing
  /// local / same-chip kMemOp paths), stamps the transaction block, and
  /// arms the decision send loop toward the foreign participants.
  void EnterDecisionPhase(uint64_t now);
  void ResetBatch();
  void CompleteRet(uint64_t now, const isa::Instruction& inst);
  /// Dynamic scheduling helpers.
  bool TryResumeWaiter(uint64_t now);
  bool AllLogicPhasesDone() const;
  /// Side-effect-free probe of TryResumeWaiter's search.
  bool AnyResumableWaiter() const;

  db::Database* db_;
  sim::DramMemory* dram_;
  db::WorkerId worker_id_;
  sim::TimingConfig timing_;
  Config config_;
  comm::IssuePort* port_;

  sim::RingQueue<sim::Addr> input_queue_;
  sim::MemResponseQueue mem_resp_;
  /// Parameter-window fill completions (cookie = tag, slot, word).
  sim::MemResponseQueue param_resp_;
  uint64_t next_fill_tag_ = 0;
  /// kParamWait: window bit of the LOAD's word.
  int param_wait_word_ = 0;

  // Register files (BRAM).
  std::vector<uint64_t> gp_;
  std::vector<uint64_t> cp_;
  std::vector<uint8_t> cp_valid_;

  // Batch state.
  std::vector<TxnContext> contexts_;
  std::vector<uint32_t> batch_order_;  // admission order
  uint32_t gp_next_ = 0;
  uint32_t cp_next_ = 0;
  bool batch_closed_ = false;
  uint32_t commit_cursor_ = 0;  // index into batch_order_ during phase 2

  // Execution state.
  State state_ = State::kIdle;
  Phase phase_ = Phase::kLogic;
  uint32_t cur_ctx_ = 0;
  uint64_t busy_until_ = 0;
  /// kMemWait variant: the LOAD went to a foreign partition over the
  /// fabric; the wake comes from CompleteRemoteLoad, not mem_resp_.
  bool remote_mem_wait_ = false;
  // Pending items for stalled states.
  isa::Instruction pending_inst_;
  comm::Envelope pending_op_;
  uint32_t pending_partition_ = 0;
  sim::Addr pending_block_ = sim::kNullAddr;
  uint32_t switch_target_ = 0;
  Phase switch_phase_ = Phase::kLogic;

  /// The single active 2PC run (the commit phase revisits transactions
  /// serially, so at most one COMMIT/ABORT is ever in flight).
  struct TwoPcRun {
    db::Timestamp ts = 0;
    bool decision_commit = false;
    bool vote_abort = false;  // any participant voted no
    uint64_t deadline = 0;     // prepare-phase abort deadline
    uint64_t next_resend = 0;  // decision-phase re-send deadline
    uint32_t acks = 0;
    struct Participant {
      db::WorkerId worker = 0;
      std::vector<cc::WriteSetEntry> entries;
      bool sent = false;   // current phase's request is on the wire
      bool acked = false;  // current phase's ack arrived
    };
    std::vector<Participant> parts;
  };
  TwoPcRun twopc_;

  BatchStats stats_;
  CounterSet counters_;
  // Lazy slot handles for per-cycle wait/stall counters (FastCounter):
  // these are bumped every stalled cycle, where a string-keyed map walk
  // dominated the dense-activity profile.
  FastCounter fc_ret_wait_{&counters_, "ret_wait_cycles"};
  FastCounter fc_dispatch_stall_{&counters_, "dispatch_stall_cycles"};
  FastCounter fc_interchip_window_stall_{&counters_,
                                         "interchip_window_stall_cycles"};
  FastCounter fc_commit_wait_{&counters_, "commit_wait_cycles"};
  FastCounter fc_abort_wait_{&counters_, "abort_wait_cycles"};
  FastCounter fc_ingest_dram_stall_{&counters_, "ingest_dram_stall"};
  FastCounter fc_load_dram_stall_{&counters_, "load_dram_stall"};
  FastCounter fc_txns_admitted_{&counters_, "txns_admitted"};
  FastCounter fc_twopc_prepare_wait_{&counters_,
                                     "twopc_prepare_wait_cycles"};
  FastCounter fc_twopc_decision_wait_{&counters_,
                                      "twopc_decision_wait_cycles"};
  FastCounter fc_param_prefetch_words_{&counters_, "param_prefetch_words"};
  FastCounter fc_param_window_hits_{&counters_, "param_window_hits"};
  FastCounter fc_param_fill_wait_{&counters_, "param_fill_wait_cycles"};
};

}  // namespace bionicdb::core

#endif  // BIONICDB_CORE_SOFTCORE_H_
