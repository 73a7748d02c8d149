// Shared declarations of the repository benchmark (see perfbench/README.md):
// statement classes, the generated statement record, and the interface each
// workload implements for main.cc.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/value.h"
#include "service/query_service.h"
#include "storage/storage_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Median of `v`; 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Every statement a workload issues belongs to exactly one class; the
/// latency and per-layer metrics are reported per class.
enum class StmtClass : uint8_t {
  kAggRewrite,   // aggregate SELECT answered from a materialized view
  kAggScan,      // single-table aggregate that no view covers
  kJoinAgg,      // two-table join aggregate that no view covers
  kPointSelect,  // lookup by unique key, right after a write
  kDmlRow,       // single-row INSERT, DELETE or UPDATE
  kBatchCommit,  // multi-row INSERT acknowledged after the WAL fsync
};
constexpr int kNumClasses = 6;

const char* ClassName(StmtClass c);
inline bool IsSelect(StmtClass c) { return c <= StmtClass::kPointSelect; }

/// One generated statement, plus what the traced replay needs to re-run it
/// layer by layer without parsing the benchmark's own SQL twice.
struct Statement {
  StmtClass cls = StmtClass::kAggRewrite;
  std::string sql;
  /// Written table (writes only).
  std::string table;
  /// DELETE/UPDATE: the WHERE clause as a SELECT of the whole row of
  /// `table`, which the replay runs to find the matched rows.
  std::string match_sql;
  /// UPDATE: the column ordinal assigned and the literal assigned to it.
  int set_column = -1;
  aqv::Value set_value;
  /// Encoded size of the rows an INSERT carries (storage amplification base).
  uint64_t user_bytes = 0;
};

/// Full size, or the tiny size the benchmark's own test runs.
enum class Scale { kFull, kTiny };

struct SetupTimes {
  double generate_s = 0;   // data generation
  double bootstrap_s = 0;  // Bootstrap plus view materialization (+ checkpoint)
};

/// Values the post-run check measures on the side (recovery of the closed
/// durable file); keyed by per-layer metric name.
using SideMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// (key, value) lines for the run header: sizes, mix and flush policy.
  virtual std::vector<std::pair<std::string, std::string>> Describe() const = 0;
  virtual int clients() const = 0;

  /// Builds a fresh service from generated inputs, replacing any earlier
  /// one. Deterministic in the seed: every call installs the same state.
  /// The returned times exclude tearing down the earlier service.
  virtual aqv::Result<SetupTimes> Setup() = 0;
  virtual aqv::QueryService& service() = 0;

  /// The next statement of client `client`'s closed-loop stream. The
  /// stream depends only on the seed (the benchmark's row model assumes
  /// every statement succeeds; a failure surfaces in CheckAfter).
  virtual Statement Next(int client) = 0;

  /// Correctness check before the timed phase (also warms the caches).
  virtual aqv::Status CheckBefore() { return aqv::Status::OK(); }

  /// Correctness check after every timed phase. May close the service.
  virtual aqv::Status CheckAfter(SideMetrics* side) = 0;

  /// The service's storage options when it is durable, else null. The
  /// traced replay opens a scratch engine with the same options.
  virtual const aqv::StorageOptions* storage_options() const { return nullptr; }
};

/// Creates the named workload ("warehouse_read", "dml_mixed" or
/// "durable_ingest"), or null for an unknown name. Files (durable_ingest
/// only) go under `work_dir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, Scale scale,
                                       uint64_t seed,
                                       const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
