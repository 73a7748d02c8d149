// The traced run: spans recorded from the benchmark's own code around the
// calls into each layer's public functions, and the layer-by-layer replay
// of a generated statement that produces them. Nothing here reaches inside
// src/: every span brackets one public call.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/table.h"

namespace perfbench {

/// One timed call. `name` is "<layer>.<call>"; spans of one statement share
/// `stmt`, and `parent` is the index of the enclosing span in the same
/// client's span vector (-1 for the statement root).
struct Span {
  uint64_t stmt = 0;
  int32_t parent = -1;
  StmtClass cls = StmtClass::kAggRewrite;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Per-client span recorder. Spans stay in memory until the run ends.
class Tracer {
 public:
  /// Opens the statement's root span ("perfbench.statement").
  void BeginStatement(uint64_t stmt, StmtClass cls);
  void EndStatement();
  /// Opens a child of the innermost open span; returns its index.
  int32_t Open(const char* name);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t stmt_ = 0;
  StmtClass cls_ = StmtClass::kAggRewrite;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Open(name)) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// What one replayed statement observed besides its span times.
struct ReplayOutcome {
  std::optional<aqv::Table> result;  // SELECT result of the replayed plan
  bool optimized = false;            // a SELECT went through Optimize
  bool used_view = false;            // ... and chose a materialized view
  int rewritings_considered = 0;
  double rows_in = 0;   // PlanProfile rows_in summed over operators
  double rows_out = 0;  // result rows
};

/// Shared state of the traced replay across client threads.
class Replayer {
 public:
  /// `log_engine` (durable workloads) receives every replayed write delta
  /// through LogCommit and a Checkpoint every `checkpoint_every` commits,
  /// mirroring the service's auto-checkpoint policy on a scratch file. Like
  /// the service's, a checkpoint runs only with the engine quiesced.
  Replayer(aqv::QueryService* service, aqv::StorageEngine* log_engine,
           uint64_t checkpoint_every);

  /// Replays `stmt` through the layers in the order the service calls
  /// them, on a snapshot pinned just before. SELECT: parse, optimize,
  /// execute the chosen plan. Write: parse, match, copy, maintain each
  /// dependent view, LogCommit.
  aqv::Status Replay(const Statement& stmt, Tracer& tracer,
                     ReplayOutcome* out);

 private:
  aqv::Status ReplaySelect(const Statement& stmt,
                           const aqv::ServiceSnapshot& snap, Tracer& tracer,
                           ReplayOutcome* out);
  aqv::Status ReplayWrite(const Statement& stmt,
                          const aqv::ServiceSnapshot& snap, Tracer& tracer);

  aqv::QueryService* service_;
  aqv::ServiceOptions defaults_;  // the service's rewrite and eval options
  aqv::StorageEngine* log_engine_;
  uint64_t checkpoint_every_;

  // Held shared around LogCommit and exclusively around Checkpoint, which
  // must not overlap a commit; taken outside the timed spans.
  std::shared_mutex log_latch_;

  std::mutex mu_;
  uint64_t log_commits_ = 0;                     // guarded by mu_
  std::set<std::pair<std::string, uint64_t>> pivoted_;  // guarded by mu_
};

/// Writes every span as one JSON object per line.
aqv::Status WriteSpans(const std::string& path,
                       const std::vector<std::vector<Span>>& per_client);

/// Self time per layer (the prefix of the span name before the first
/// '.'), in seconds: each span's duration minus what its children cover.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<std::vector<Span>>& per_client);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
