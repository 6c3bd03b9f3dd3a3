// perfbench: the repository benchmark.
//
// Runs one named workload on a 4-worker BionicDB engine with default
// options, in two phases on fresh engines: a saturating closed loop
// (committed throughput) and an open loop with Poisson arrivals at a fixed
// offered rate (arrival-to-commit latency). The pair is repeated until
// --seconds of host time have passed. Every repetition's outputs are
// checked against values computed here from the generators' formulas, and
// the simulated results must repeat exactly across repetitions.
//
//   perfbench --workload ycsb_c|tpcc|ycsb_e_scan --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--corrupt NAME]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, taken from a run that
// alternates traced and untraced repetitions. The simulator's host time is
// a per-layer metric (the difference of the two kinds' best host times is
// the tracing overhead). --corrupt NAME damages one value in
// the first repetition so that the named check must fail; run.py
// --self-test drives every such corruption.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/engine.h"
#include "db/tuple.h"
#include "db/txn_block.h"
#include "host/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace {

using namespace bionicdb;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the cold set-up time is
// measured from here.
const Clock::time_point kProcessStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Fixed workload parameters -----------------------------------------------

constexpr uint32_t kWorkers = 4;
constexpr uint32_t kInflightPerWorker = 8;
// Summary keeps every sample up to this count, so each open-loop segment's
// quantiles stay exact; segments run back to back on one engine and their
// samples are pooled here.
constexpr uint32_t kOpenTxnsPerSegment = 4096;
// Host time is lapped every this many generated transactions: the same
// simulated work in every repetition (see ChunkMinSeconds).
constexpr uint64_t kChunkTxns = 128;

constexpr uint32_t kYcsbRecords = 50'000;  // per partition
constexpr uint32_t kYcsbPayload = 256;
constexpr uint32_t kYcsbAccesses = 16;
constexpr uint32_t kScanLen = 50;

struct WorkloadSpec {
  const char* name;
  /// Open-loop Poisson offered load, transactions per simulated second
  /// (README.md says how each was chosen).
  double offered_tps;
  uint32_t closed_txns_per_worker;
  /// Open-loop segments of kOpenTxnsPerSegment transactions.
  uint32_t open_segments;
};

constexpr WorkloadSpec kSpecs[] = {
    {"ycsb_c", 900e3, 2000, 8},
    {"tpcc", 45e3, 1000, 6},
    {"ycsb_e_scan", 66e3, 1000, 4},
};

// --- Tracing -----------------------------------------------------------------

/// In-memory span log. Spans nest through `parent` (index into spans_, -1 for
/// a root); all spans of one repetition share its `rep` id.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    uint32_t rep;
    int64_t start_ns;
    int64_t end_ns;
  };

  void set_on(bool on) { on_ = on; }
  void set_rep(uint32_t rep) { rep_ = rep; }

  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, current_, rep_, Now(), 0});
    current_ = int(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[size_t(id)].end_ns = Now();
    current_ = spans_[size_t(id)].parent;
  }

  /// Sum of each span name's self time (duration minus the time its child
  /// spans cover) over the spans of repetition `rep`.
  std::map<std::string, double> SelfSeconds(uint32_t rep) const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[size_t(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].rep == rep) out[spans_[i].name] += double(self[i]) * 1e-9;
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"rep\":%u}}\n",
                   i == 0 ? "" : ",", s.name, double(s.start_ns) * 1e-3,
                   double(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.rep);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
  }

  bool on_ = false;
  uint32_t rep_ = 0;
  int current_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name) : t_(t), id_(t->Begin(name)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// --- Correctness checks ------------------------------------------------------

class Checks {
 public:
  /// Records a failed check (first few details per check go to stderr).
  void Fail(const std::string& check, const std::string& detail) {
    if (++failures_[check] <= 3) {
      std::fprintf(stderr, "CHECK FAILED [%s] %s\n", check.c_str(),
                   detail.c_str());
    }
  }
  void Expect(bool ok, const std::string& check, const std::string& detail) {
    if (!ok) Fail(check, detail);
  }
  bool ok() const { return failures_.empty(); }
  const std::map<std::string, uint64_t>& failures() const { return failures_; }

 private:
  std::map<std::string, uint64_t> failures_;
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// --- Workloads ---------------------------------------------------------------

/// One workload bound to one engine: loads it, generates transactions
/// (recording every block it hands out), and checks the engine's outputs.
class Workload {
 public:
  struct Block {
    db::WorkerId worker;
    sim::Addr addr;
  };

  explicit Workload(core::BionicDb* engine)
      : engine_(engine), dram_(engine->database().dram()) {}
  virtual ~Workload() = default;

  virtual Status Setup() = 0;
  /// Reads the pre-run state the checks compare against.
  virtual void Snapshot() {}
  virtual sim::Addr Generate(Rng* rng, db::WorkerId w) = 0;
  /// Damages one value for the self-test; returns false if `what` is not
  /// this workload's corruption.
  virtual bool Corrupt(const std::string& what, StatsRegistry* stats) = 0;
  /// `retries`: in-place re-executions of aborted blocks.
  virtual void Check(const StatsRegistry& stats, uint64_t retries,
                     Checks* checks) = 0;

  sim::Addr Make(Rng* rng, db::WorkerId w) {
    const sim::Addr a = Generate(rng, w);
    blocks_.push_back(Block{w, a});
    return a;
  }

  void MarkFirstBlockAborted() {
    db::TxnBlock(dram_, blocks_.at(0).addr).set_state(db::TxnState::kAborted);
  }

  /// Every generated block ended committed.
  void CheckBlocksCommitted(Checks* checks) const {
    for (const Block& b : blocks_) {
      const db::TxnBlock blk(dram_, b.addr);
      checks->Expect(blk.state() == db::TxnState::kCommitted,
                     "all.blocks_committed",
                     Fmt("block 0x%" PRIx64 " state %u", b.addr,
                         unsigned(blk.state())));
    }
  }

 protected:
  /// Payload address of the tuple with native-order key `key`, or null.
  sim::Addr PayloadLe(db::TableId t, uint32_t part, uint64_t key) const {
    const sim::Addr a = engine_->database().FindU64Le(t, part, key);
    if (a == sim::kNullAddr) return sim::kNullAddr;
    const db::TupleAccessor acc(dram_, a);
    if (acc.tombstone()) return sim::kNullAddr;
    return acc.payload_addr();
  }

  core::BionicDb* engine_;
  sim::DramMemory* dram_;
  std::vector<Block> blocks_;
};

/// The YCSB generator's payload: byte i is uint8_t(i * 131).
uint8_t YcsbPayloadByte(uint32_t i) { return uint8_t(i * 131u); }

class YcsbC : public Workload {
 public:
  using Workload::Workload;

  Status Setup() override {
    workload::YcsbOptions o;
    o.mode = workload::YcsbOptions::Mode::kReadOnly;
    o.records_per_partition = kYcsbRecords;
    o.payload_len = kYcsbPayload;
    o.accesses_per_txn = kYcsbAccesses;
    ycsb_ = std::make_unique<workload::Ycsb>(engine_, o);
    return ycsb_->Setup();
  }

  sim::Addr Generate(Rng* rng, db::WorkerId w) override {
    return ycsb_->MakeTxn(rng, w);
  }

  bool Corrupt(const std::string& what, StatsRegistry* stats) override {
    if (what == "ycsb_key") {
      // An unloaded key in the first block.
      db::TxnBlock(dram_, blocks_.at(0).addr)
          .WriteKeyU64(8 * 3, uint64_t(kWorkers) * kYcsbRecords);
      return true;
    }
    if (what == "ycsb_search_count") {
      const std::string p = "workers/0/coproc/hash/ops_admitted";
      stats->SetCounter(p, stats->GetCounter(p) + 1);
      return true;
    }
    if (what == "ycsb_payload") {
      const sim::Addr pa = SampleRow(0).second;
      dram_->Write8(pa + 100, uint8_t(dram_->Read8(pa + 100) ^ 0x40));
      return true;
    }
    return false;
  }

  void Check(const StatsRegistry& stats, uint64_t retries,
             Checks* checks) override {
    // Every key is a loaded key of the issuing worker's partition.
    for (const Block& b : blocks_) {
      const db::TxnBlock blk(dram_, b.addr);
      for (uint32_t i = 0; i < kYcsbAccesses; ++i) {
        const uint64_t k = blk.ReadKeyU64(8 * i);
        checks->Expect(k / kYcsbRecords == b.worker, "ycsb.keys_loaded",
                       Fmt("worker %u key %" PRIu64, b.worker, k));
      }
    }
    // Generated accesses == searches the hash pipelines took in.
    uint64_t searches = 0;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      searches +=
          stats.GetCounter(Fmt("workers/%u/coproc/hash/ops_admitted", w));
    }
    const uint64_t generated = (blocks_.size() + retries) * kYcsbAccesses;
    checks->Expect(searches == generated, "ycsb.search_count",
                   Fmt("generated %" PRIu64 " searched %" PRIu64, generated,
                       searches));
    // A sample of rows carries the generator's payload bytes.
    for (uint32_t s = 0; s < kPayloadSamples; ++s) {
      const auto [key, pa] = SampleRow(s);
      if (pa == sim::kNullAddr) {
        checks->Fail("ycsb.payload_sample",
                     Fmt("key %" PRIu64 " missing", key));
        continue;
      }
      uint8_t buf[kYcsbPayload];
      dram_->ReadBytes(pa, buf, kYcsbPayload);
      for (uint32_t i = 0; i < kYcsbPayload; ++i) {
        if (buf[i] != YcsbPayloadByte(i)) {
          checks->Fail("ycsb.payload_sample",
                       Fmt("key %" PRIu64 " byte %u", key, i));
          break;
        }
      }
    }
  }

 private:
  static constexpr uint32_t kPayloadSamples = 64;

  /// The s-th sampled row: a key read from a spread of generated blocks.
  std::pair<uint64_t, sim::Addr> SampleRow(uint32_t s) const {
    const Block& b = blocks_.at(size_t(s) * blocks_.size() / kPayloadSamples);
    const uint64_t key =
        db::TxnBlock(dram_, b.addr).ReadKeyU64(8 * (s % kYcsbAccesses));
    const uint32_t part = uint32_t(key / kYcsbRecords);
    const sim::Addr t =
        engine_->database().FindU64(workload::Ycsb::kTable, part, key);
    if (t == sim::kNullAddr) return {key, sim::kNullAddr};
    return {key, db::TupleAccessor(dram_, t).payload_addr()};
  }

  std::unique_ptr<workload::Ycsb> ycsb_;
};

class YcsbEScan : public Workload {
 public:
  using Workload::Workload;

  Status Setup() override {
    workload::YcsbOptions o;
    o.mode = workload::YcsbOptions::Mode::kScanOnly;
    o.records_per_partition = kYcsbRecords;
    o.payload_len = kYcsbPayload;
    o.scan_len = kScanLen;
    ycsb_ = std::make_unique<workload::Ycsb>(engine_, o);
    return ycsb_->Setup();
  }

  sim::Addr Generate(Rng* rng, db::WorkerId w) override {
    return ycsb_->MakeTxn(rng, w);
  }

  bool Corrupt(const std::string& what, StatsRegistry*) override {
    db::TxnBlock blk(dram_, blocks_.at(0).addr);
    if (what == "scan_start") {
      // A start key with fewer than kScanLen loaded keys after it.
      blk.WriteKeyU64(0, (uint64_t(blocks_[0].worker) + 1) * kYcsbRecords - 1);
      return true;
    }
    if (what != "scan_result") return false;
    // Swap the first two collected payload addresses of the first scan.
    const sim::Addr a = blk.data() + kResultOffset;
    const uint64_t first = dram_->Read64(a);
    dram_->Write64(a, dram_->Read64(a + 8));
    dram_->Write64(a + 8, first);
    return true;
  }

  void Check(const StatsRegistry&, uint64_t, Checks* checks) override {
    // The scan block holds its start key at 0 and the collected payload
    // addresses at 16. Loaded keys of partition p are p*R .. p*R+R-1, so
    // the kScanLen keys at or after `start` are start, start+1, ...
    for (const Block& b : blocks_) {
      const db::TxnBlock blk(dram_, b.addr);
      const uint64_t start = blk.ReadKeyU64(0);
      const bool in_range = start / kYcsbRecords == b.worker &&
                            start % kYcsbRecords + kScanLen <= kYcsbRecords;
      checks->Expect(in_range, "scan.start_key",
                     Fmt("worker %u start %" PRIu64, b.worker, start));
      if (!in_range) continue;
      for (uint32_t j = 0; j < kScanLen; ++j) {
        const sim::Addr pa = blk.ReadU64(kResultOffset + 8 * j);
        // The tuple's 8-byte key sits right before its payload.
        uint8_t kbuf[8];
        dram_->ReadBytes(pa - 8, kbuf, 8);
        const uint64_t key = db::DecodeKeyU64(kbuf);
        if (key != start + j || dram_->Read8(pa + 7) != YcsbPayloadByte(7)) {
          checks->Fail("scan.result_keys",
                       Fmt("start %" PRIu64 " slot %u holds key %" PRIu64,
                           start, j, key));
          break;
        }
      }
    }
  }

 private:
  static constexpr int64_t kResultOffset = 16;

  std::unique_ptr<workload::Ycsb> ycsb_;
};

class Tpcc : public Workload {
 public:
  using Workload::Workload;
  using T = workload::Tpcc;

  Status Setup() override {
    tpcc_ = std::make_unique<T>(engine_, workload::TpccOptions{});
    return tpcc_->Setup();
  }

  sim::Addr Generate(Rng* rng, db::WorkerId w) override {
    return tpcc_->MakeMixed(rng, w);
  }

  void Snapshot() override {
    next_oid_before_.clear();
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (uint32_t d = 0; d < opts().districts_per_warehouse; ++d) {
        next_oid_before_.push_back(DistrictField(w, d, T::kDistrictNextOid));
      }
    }
    w_ytd_before_ = SumWarehouseYtd();
    s_ytd_before_ = SumStockYtd();
  }

  bool Corrupt(const std::string& what, StatsRegistry*) override {
    const auto bump = [this](sim::Addr a) {
      dram_->Write64(a, dram_->Read64(a) + 1);
    };
    if (what == "tpcc_d_ytd") {
      bump(District(0, 0) + T::kDistrictYtd);
    } else if (what == "tpcc_next_oid") {
      bump(District(0, 0) + T::kDistrictNextOid);
    } else if (what == "tpcc_payment_amount") {
      bump(db::TxnBlock(dram_, FirstBlockOf(T::kPaymentTxn)).data() +
           kPaymentAmount);
    } else if (what == "tpcc_s_ytd") {
      bump(PayloadLe(T::kStock, 0, tpcc_->StockKey(0, 0)) + T::kStockYtd);
    } else {
      return false;
    }
    return true;
  }

  void Check(const StatsRegistry&, uint64_t, Checks* checks) override {
    const uint32_t n_d = opts().districts_per_warehouse;
    // Consistency condition 1: W_YTD = sum of D_YTD, per warehouse.
    for (uint32_t w = 0; w < kWorkers; ++w) {
      uint64_t d_sum = 0;
      for (uint32_t d = 0; d < n_d; ++d) {
        d_sum += DistrictField(w, d, T::kDistrictYtd);
      }
      const uint64_t w_ytd =
          dram_->Read64(PayloadLe(T::kWarehouse, w, tpcc_->WarehouseKey(w)) +
                        T::kWarehouseYtd);
      checks->Expect(w_ytd == d_sum, "tpcc.consistency1",
                     Fmt("w %u W_YTD %" PRIu64 " sum D_YTD %" PRIu64, w, w_ytd,
                         d_sum));
    }
    // Committed blocks: payment amounts, ordered quantities, and NewOrders
    // per district.
    uint64_t paid = 0;
    uint64_t ordered = 0;
    std::vector<uint64_t> new_orders(size_t(kWorkers) * n_d, 0);
    for (const Block& b : blocks_) {
      const db::TxnBlock blk(dram_, b.addr);
      if (blk.state() != db::TxnState::kCommitted) continue;
      if (blk.txn_type() == T::kPaymentTxn) {
        paid += blk.ReadU64(kPaymentAmount);
      } else if (blk.txn_type() == T::kNewOrderTxn) {
        for (uint32_t i = 0; i < opts().ol_cnt; ++i) {
          ordered += blk.ReadU64(kNewOrderItems + 32 * i + 16);
        }
        // Data offset 8 holds DistrictKey(w, d) = w * 100 + d.
        const uint64_t dkey = blk.ReadU64(8);
        const uint64_t w = dkey / 100;
        const uint64_t d = dkey % 100;
        if (w < kWorkers && d < n_d) {
          ++new_orders[w * n_d + d];
        } else {
          checks->Fail("tpcc.next_oid", Fmt("district key %" PRIu64, dkey));
        }
      }
    }
    const uint64_t w_ytd_gain = SumWarehouseYtd() - w_ytd_before_;
    checks->Expect(w_ytd_gain == paid, "tpcc.payment_sum",
                   Fmt("sum W_YTD rose %" PRIu64
                       ", committed payments %" PRIu64,
                       w_ytd_gain, paid));
    const uint64_t s_ytd_gain = SumStockYtd() - s_ytd_before_;
    checks->Expect(s_ytd_gain == ordered, "tpcc.stock_ytd_sum",
                   Fmt("sum S_YTD rose %" PRIu64 ", ordered quantity %" PRIu64,
                       s_ytd_gain, ordered));
    // next_o_id advance == orders found == committed NewOrders, per
    // district.
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (uint32_t d = 0; d < n_d; ++d) {
        const uint64_t before = next_oid_before_[w * n_d + d];
        const uint64_t advance =
            DistrictField(w, d, T::kDistrictNextOid) - before;
        uint64_t found = 0;
        while (PayloadLe(T::kOrder, w, tpcc_->OrderKey(w, d, before + found)) !=
               sim::kNullAddr) {
          ++found;
        }
        const uint64_t committed = new_orders[w * n_d + d];
        checks->Expect(advance == found && found == committed, "tpcc.next_oid",
                       Fmt("w %u d %u advance %" PRIu64 " orders %" PRIu64
                           " committed NewOrders %" PRIu64,
                           w, d, advance, found, committed));
      }
    }
  }

 private:
  // Documented block layouts (workload/tpcc.cc): Payment's amount at data
  // offset 40; NewOrder's 32-byte item records from offset 32, ordered
  // quantity at +16.
  static constexpr int64_t kPaymentAmount = 40;
  static constexpr int64_t kNewOrderItems = 32;

  const workload::TpccOptions& opts() const { return tpcc_->options(); }

  sim::Addr District(uint32_t w, uint32_t d) const {
    return PayloadLe(T::kDistrict, w, tpcc_->DistrictKey(w, d));
  }
  uint64_t DistrictField(uint32_t w, uint32_t d, int64_t off) const {
    return dram_->Read64(District(w, d) + off);
  }
  uint64_t SumWarehouseYtd() const {
    uint64_t s = 0;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      s += dram_->Read64(PayloadLe(T::kWarehouse, w, tpcc_->WarehouseKey(w)) +
                         T::kWarehouseYtd);
    }
    return s;
  }
  uint64_t SumStockYtd() const {
    uint64_t s = 0;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (uint32_t i = 0; i < opts().items; ++i) {
        s += dram_->Read64(PayloadLe(T::kStock, w, tpcc_->StockKey(w, i)) +
                           T::kStockYtd);
      }
    }
    return s;
  }
  sim::Addr FirstBlockOf(db::TxnTypeId type) const {
    for (const Block& b : blocks_) {
      const db::TxnBlock blk(dram_, b.addr);
      if (blk.txn_type() == type && blk.state() == db::TxnState::kCommitted) {
        return b.addr;
      }
    }
    return blocks_.at(0).addr;
  }

  std::unique_ptr<T> tpcc_;
  std::vector<uint64_t> next_oid_before_;
  uint64_t w_ytd_before_ = 0;
  uint64_t s_ytd_before_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       core::BionicDb* engine) {
  if (name == "ycsb_c") return std::make_unique<YcsbC>(engine);
  if (name == "tpcc") return std::make_unique<Tpcc>(engine);
  if (name == "ycsb_e_scan") return std::make_unique<YcsbEScan>(engine);
  return nullptr;
}

// --- Phases ------------------------------------------------------------------

struct PhaseResult {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;  // failed + shed
  uint64_t retries = 0;
  uint64_t cycles = 0;
  double tps = 0;
  /// Host seconds inside the RunClosedLoop / RunOpenLoop calls, lapped
  /// every kChunkTxns generated transactions and at each call's end.
  std::vector<double> chunks;
  double build_s = 0;
  double load_s = 0;
  /// When the phase's database finished loading.
  Clock::time_point setup_end;
  uint64_t dram_allocated = 0;
  uint64_t skipped_cycles = 0;
  uint64_t engine_cycles = 0;
  /// Open loop: every arrival-to-commit latency, in cycles.
  std::vector<double> latency;
  /// Digest of every simulated result of the phase.
  uint64_t digest = 0;
  StatsRegistry stats;
};

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  std::string corrupt;
};

/// Derives an independent stream seed from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

PhaseResult RunPhase(const RunConfig& cfg, const WorkloadSpec& spec,
                     bool open_loop, bool corrupt_now, Tracer* tracer,
                     Checks* checks) {
  ScopedSpan phase_span(tracer, open_loop ? "phase_open" : "phase_closed");
  PhaseResult r;
  core::EngineOptions eo;
  eo.n_workers = kWorkers;

  auto t0 = Clock::now();
  std::unique_ptr<core::BionicDb> engine;
  {
    ScopedSpan s(tracer, "engine_build");
    engine = std::make_unique<core::BionicDb>(eo);
  }
  auto t1 = Clock::now();
  std::unique_ptr<Workload> wl = MakeWorkload(cfg.workload, engine.get());
  {
    ScopedSpan s(tracer, "setup");
    const Status st = wl->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  auto t2 = Clock::now();
  r.build_s = SecondsBetween(t0, t1);
  r.load_s = SecondsBetween(t1, t2);
  r.setup_end = t2;
  r.dram_allocated = engine->simulator().dram().allocated_bytes();
  wl->Snapshot();

  Clock::time_point mark;
  const auto lap = [&] {
    const auto now = Clock::now();
    r.chunks.push_back(SecondsBetween(mark, now));
    mark = now;
  };
  Rng rng(StreamSeed(cfg.seed, open_loop ? 1 : 0));
  uint64_t generated = 0;
  const host::TxnFactory factory = [&](db::WorkerId w) {
    if (++generated % kChunkTxns == 0) lap();
    ScopedSpan s(tracer, "txn_gen");
    return wl->Make(&rng, w);
  };

  if (!open_loop) {
    host::ClosedLoopOptions co;
    co.inflight_per_worker = kInflightPerWorker;
    co.txns_per_worker = spec.closed_txns_per_worker;
    host::ClosedLoopResult c;
    {
      ScopedSpan s(tracer, "closed_loop");
      mark = Clock::now();
      c = host::RunClosedLoop(engine.get(), factory, co);
      lap();
    }
    r.submitted = c.submitted;
    r.committed = c.committed;
    r.failed = c.failed;
    r.retries = c.retries;
    r.cycles = c.cycles;
    r.tps = c.tps;
  } else {
    for (uint32_t seg = 0; seg < spec.open_segments; ++seg) {
      host::OpenLoopOptions oo;
      oo.arrival.process = host::ArrivalOptions::Process::kPoisson;
      oo.arrival.offered_tps = spec.offered_tps;
      oo.arrival.seed = StreamSeed(cfg.seed, 2 + seg);
      oo.total_txns = kOpenTxnsPerSegment;
      oo.inflight_per_worker = kInflightPerWorker;
      host::OpenLoopResult o;
      {
        ScopedSpan s(tracer, "open_loop");
        mark = Clock::now();
        o = host::RunOpenLoop(engine.get(), factory, oo);
        lap();
      }
      r.submitted += o.submitted;
      r.committed += o.committed;
      r.failed += o.failed + o.shed;
      r.retries += o.retries;
      r.cycles += o.cycles;
      std::vector<double> samples = o.latency_cycles.reservoir();
      if (corrupt_now && cfg.corrupt == "latency_exact") samples.pop_back();
      checks->Expect(samples.size() == o.latency_cycles.count(),
                     "all.latency_exact",
                     Fmt("%zu of %" PRIu64 " latencies retained",
                         samples.size(), o.latency_cycles.count()));
      r.latency.insert(r.latency.end(), samples.begin(), samples.end());
    }
  }
  r.engine_cycles = engine->now();
  r.skipped_cycles = engine->simulator().warp_stats().skipped_cycles;
  {
    ScopedSpan s(tracer, "collect_stats");
    engine->CollectStats(&r.stats);
  }

  ScopedSpan check_span(tracer, "checks");
  const std::string json = r.stats.ToJson(0);
  uint64_t h = Fnv(0xcbf29ce484222325ULL, json.data(), json.size());
  const uint64_t fields[] = {r.submitted, r.committed, r.failed, r.retries,
                             r.cycles};
  h = Fnv(h, fields, sizeof(fields));
  h = Fnv(h, r.latency.data(), r.latency.size() * sizeof(double));
  r.digest = h;
  if (corrupt_now && !cfg.corrupt.empty()) {
    if (cfg.corrupt == "accounting") {
      --r.committed;
    } else if (cfg.corrupt == "block_state") {
      wl->MarkFirstBlockAborted();
    } else if (cfg.corrupt != "determinism" &&
               cfg.corrupt != "latency_exact" &&
               !wl->Corrupt(cfg.corrupt, &r.stats)) {
      std::fprintf(stderr, "unknown corruption '%s' for %s\n",
                   cfg.corrupt.c_str(), cfg.workload.c_str());
      std::exit(2);
    }
  }
  checks->Expect(r.submitted == r.committed && r.failed == 0,
                 "all.accounting",
                 Fmt("%s: submitted %" PRIu64 " committed %" PRIu64
                     " failed+shed %" PRIu64,
                     open_loop ? "open" : "closed", r.submitted, r.committed,
                     r.failed));
  wl->CheckBlocksCommitted(checks);
  wl->Check(r.stats, r.retries, checks);

  return r;
}

struct RepResult {
  PhaseResult closed;
  PhaseResult open;
  bool traced = false;
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Host seconds to simulate both phases, best of the repetitions whose
/// `traced` flag matches: each chunk (the same simulated work in every
/// repetition) contributes its minimum over those repetitions. Returns
/// infinity when there are none.
double ChunkMinSeconds(const std::vector<RepResult>& reps, bool traced) {
  std::vector<double> best;
  for (const RepResult& r : reps) {
    if (r.traced != traced) continue;
    std::vector<double> chunks = r.closed.chunks;
    chunks.insert(chunks.end(), r.open.chunks.begin(), r.open.chunks.end());
    if (best.empty()) {
      best = chunks;
    } else {
      for (size_t j = 0; j < std::min(best.size(), chunks.size()); ++j) {
        best[j] = std::min(best[j], chunks[j]);
      }
    }
  }
  return best.empty() ? INFINITY : Sum(best);
}

// --- Metrics -----------------------------------------------------------------

/// Linear-interpolation quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * double(sorted.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer counters of one closed-loop phase, normalised per committed
/// transaction.
void AddLayerCounters(const PhaseResult& p, std::vector<Metric>* out) {
  const StatsRegistry& s = p.stats;
  const double txns = double(std::max<uint64_t>(p.committed, 1));
  const auto ctr = [&s](const std::string& path) {
    return double(s.GetCounter(path));
  };
  const auto gauge = [&s](const std::string& path) {
    const auto it = s.gauges().find(path);
    return it == s.gauges().end() ? 0.0 : it->second;
  };
  const auto sum_workers = [&](const char* leaf) {
    double v = 0;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      v += ctr(Fmt("workers/%u/%s", w, leaf));
    }
    return v;
  };
  const auto mean_workers_gauge = [&](const char* leaf) {
    double v = 0;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      v += gauge(Fmt("workers/%u/%s", w, leaf));
    }
    return v / kWorkers;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  out->push_back({"host.retries_per_txn", double(p.retries) / txns, "count"});

  const double total = sum_workers("cycles/total");
  for (const char* bucket :
       {"busy", "dram_stall", "hazard_block", "backpressure", "idle"}) {
    out->push_back({Fmt("core.%s_share", bucket),
                    ratio(sum_workers(Fmt("cycles/%s", bucket).c_str()), total),
                    "share"});
  }
  out->push_back({"core.instructions_per_txn",
                  sum_workers("softcore/instructions") / txns, "count"});
  out->push_back({"core.context_switches_per_txn",
                  sum_workers("softcore/context_switches") / txns, "count"});
  out->push_back({"core.ret_wait_cycles_per_txn",
                  sum_workers("softcore/ret_wait_cycles") / txns, "cycles"});

  const double ops = sum_workers("coproc/foreground_ops");
  out->push_back({"index.ops_per_txn", ops / txns, "count"});
  out->push_back({"index.cap_rejects_per_op",
                  ratio(sum_workers("coproc/cap_rejects"), ops), "count"});
  out->push_back({"index.hash_mean_occupancy",
                  mean_workers_gauge("coproc/hash/mean_occupancy"), "count"});
  out->push_back({"index.hash_traverse_per_probe",
                  ratio(sum_workers("coproc/hash/traverse_stage_ops"),
                        sum_workers("coproc/hash/hash_stage_ops")),
                  "count"});
  out->push_back({"index.hash_lock_stall_cycles_per_txn",
                  sum_workers("coproc/hash/hash_lock_stall_cycles") / txns,
                  "cycles"});
  out->push_back({"index.skiplist_busy_share",
                  ratio(sum_workers("coproc/skiplist/busy_cycles"), total),
                  "share"});
  out->push_back({"index.skiplist_mean_occupancy",
                  mean_workers_gauge("coproc/skiplist/mean_occupancy"),
                  "count"});

  out->push_back({"cc.aborts_per_commit",
                  sum_workers("softcore/aborted") / txns, "count"});
  out->push_back({"cc.abort_wait_cycles_per_txn",
                  sum_workers("softcore/abort_wait_cycles") / txns, "cycles"});

  Summary rtt;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    const auto it = s.summaries().find(Fmt("workers/%u/remote_rtt_cycles", w));
    if (it != s.summaries().end()) rtt.MergeFrom(it->second);
  }
  out->push_back({"comm.envelopes_per_txn", ctr("fabric/messages_sent") / txns,
                  "count"});
  out->push_back({"comm.remote_rtt_p99_cycles", rtt.Quantile(0.99), "cycles"});

  out->push_back({"sim.dram_reads_per_txn", ctr("sim/dram/reads") / txns,
                  "count"});
  out->push_back({"sim.dram_writes_per_txn", ctr("sim/dram/writes") / txns,
                  "count"});
  const auto qw = s.summaries().find("sim/dram/queue_wait_cycles");
  out->push_back({"sim.dram_queue_wait_p99_cycles",
                  qw == s.summaries().end() ? 0.0 : qw->second.Quantile(0.99),
                  "cycles"});
  double util_max = 0;
  for (const auto& [path, v] : s.gauges()) {
    if (path.rfind("sim/dram/channels/", 0) == 0 &&
        path.size() > 18 &&
        path.compare(path.size() - 18, 18, "/issue_utilization") == 0) {
      util_max = std::max(util_max, v);
    }
  }
  out->push_back({"sim.dram_channel_util_max", util_max, "share"});
  out->push_back({"sim.skipped_cycle_share",
                  ratio(double(p.skipped_cycles), double(p.engine_cycles)),
                  "share"});
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ycsb_c|tpcc|ycsb_e_scan --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--corrupt NAME]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) return Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--corrupt") {
      cfg.corrupt = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (cfg.workload == s.name) spec = &s;
  }
  if (spec == nullptr) return Usage("unknown --workload");

  Tracer tracer;
  Checks checks;
  std::vector<RepResult> reps;
  const auto measure_start = Clock::now();
  // At least two repetitions feed the determinism check, and the best-of
  // host times of a traced run need two of each kind. Beyond that, a
  // repetition starts only if it should end within --seconds, so every run
  // attempts whole repetitions.
  const size_t min_reps = trace ? 4 : 2;
  for (;;) {
    const double elapsed = SecondsBetween(measure_start, Clock::now());
    const double per_rep = reps.empty() ? 0 : elapsed / double(reps.size());
    if (reps.size() >= min_reps && elapsed + per_rep > seconds) break;
    const uint32_t rep = uint32_t(reps.size());
    RepResult rr;
    rr.traced = trace && rep % 2 == 1;
    tracer.set_on(rr.traced);
    tracer.set_rep(rep);
    {
      ScopedSpan rep_span(&tracer, "rep");
      rr.closed = RunPhase(cfg, *spec, false, rep == 0, &tracer, &checks);
      rr.open = RunPhase(cfg, *spec, true, rep == 0, &tracer, &checks);
    }
    std::fprintf(stderr,
                 "rep %u%s: closed %.4f s, open %.4f s\n", rep,
                 rr.traced ? " traced" : "", Sum(rr.closed.chunks),
                 Sum(rr.open.chunks));
    // Only the first repetition's samples and stats are reported; later
    // ones keep their digests and counts, so peak RSS does not grow with
    // the number of repetitions.
    if (rep > 0) {
      for (PhaseResult* p : {&rr.closed, &rr.open}) {
        p->latency = {};
        p->stats = StatsRegistry();
      }
    }
    reps.push_back(std::move(rr));
  }

  // Every repetition's simulated results equal the first's.
  for (size_t i = 1; i < reps.size(); ++i) {
    uint64_t closed_digest = reps[i].closed.digest;
    if (i == 1 && cfg.corrupt == "determinism") closed_digest ^= 1;
    checks.Expect(closed_digest == reps[0].closed.digest &&
                      reps[i].open.digest == reps[0].open.digest,
                  "all.determinism",
                  Fmt("repetition %zu differs from repetition 0", i));
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t best_traced_rep = 0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    attempted += r.closed.submitted + r.open.submitted;
    failed += r.closed.failed + r.open.failed;
    const auto total = [](const RepResult& x) {
      return Sum(x.closed.chunks) + Sum(x.open.chunks);
    };
    if (r.traced && (!reps[best_traced_rep].traced ||
                     total(r) < total(reps[best_traced_rep]))) {
      best_traced_rep = i;
    }
  }
  const double best_untraced = ChunkMinSeconds(reps, false);
  const double best_traced = ChunkMinSeconds(reps, true);

  const PhaseResult& closed = reps[0].closed;
  const PhaseResult& open = reps[0].open;
  const double mhz = core::EngineOptions{}.timing.clock_mhz;
  std::vector<Metric> metrics;
  if (!trace) {
    std::vector<double> lat = open.latency;
    std::sort(lat.begin(), lat.end());
    metrics.push_back({"engine_ktps", closed.tps / 1e3, "ktxn/s"});
    metrics.push_back({"engine_p50_us", Quantile(lat, 0.50) / mhz, "us"});
    metrics.push_back({"engine_p99_us", Quantile(lat, 0.99) / mhz, "us"});
    metrics.push_back(
        {"setup_s", SecondsBetween(kProcessStart, closed.setup_end), "s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    const std::map<std::string, double> self =
        tracer.SelfSeconds(uint32_t(best_traced_rep));
    const auto self_s = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const RepResult& bt = reps[best_traced_rep];
    const double gen_calls =
        double(bt.closed.submitted + bt.open.submitted);
    metrics.push_back({"host.txn_gen_us_per_txn",
                       self_s("txn_gen") / gen_calls * 1e6, "us"});
    metrics.push_back({"db.load_s", closed.load_s, "s"});
    metrics.push_back({"db.dram_allocated_mb",
                       double(closed.dram_allocated) / double(1 << 20), "MB"});
    metrics.push_back({"core.engine_build_s", closed.build_s, "s"});
    AddLayerCounters(closed, &metrics);
    metrics.push_back({"sim.host_s", best_untraced, "s"});
    metrics.push_back(
        {"sim.host_ns_per_cycle",
         best_untraced / double(closed.cycles + open.cycles) * 1e9, "ns"});
    metrics.push_back({"trace.overhead_s", best_traced - best_untraced, "s"});
    metrics.push_back({"trace.overhead_share",
                       (best_traced - best_untraced) / best_untraced, "share"});
    for (const char* name : {"rep", "phase_closed", "phase_open",
                             "engine_build", "setup", "closed_loop",
                             "open_loop", "txn_gen", "collect_stats",
                             "checks"}) {
      metrics.push_back({Fmt("span.%s.self_s", name), self_s(name), "s"});
    }
    if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  for (const auto& [check, n] : checks.failures()) {
    std::fprintf(stderr, "check %s failed %" PRIu64 " time(s)\n",
                 check.c_str(), n);
  }
  std::fprintf(stderr,
               "perfbench %s seed %" PRIu64 ": %zu repetitions, sim host "
               "seconds best %.4f\n",
               cfg.workload.c_str(), cfg.seed, reps.size(), best_untraced);
  PrintResult(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}
