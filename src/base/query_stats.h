#ifndef AQV_BASE_QUERY_STATS_H_
#define AQV_BASE_QUERY_STATS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/metrics.h"
#include "base/trace.h"

namespace aqv {

/// The disjoint phases a statement's wall time is split into. Reads pass
/// parse, latch, rewrite and exec; writes pass parse, latch, exec, maintain
/// and wal_commit.
enum class QueryPhase : uint8_t {
  kParse,      // text -> bound IR (reads: under the shared ddl latch)
  kLatch,      // computing the latch footprint and waiting on its stripes
  kRewrite,    // plan-cache probe, rewrite search and costing on a miss
  kExec,       // reads: the evaluator; writes: materialize, validate,
               // copy-on-write apply and publish
  kMaintain,   // incremental maintenance or recompute of dependent views
  kWalCommit,  // WAL append + fsync, and any backpressure stall before it
};
inline constexpr size_t kNumPhases = 6;

/// The one name table for QueryPhase: `label` is what EXPLAIN ANALYZE,
/// SLOWLOG and STATS ATTRIBUTION print (and names the phase's
/// `service.<label>_latency` histogram), `span` the trace span a Phase opens.
struct PhaseName {
  const char* label;
  const char* span;
};
inline constexpr PhaseName kPhaseNames[kNumPhases] = {
    {"parse", "parse"},       {"latch", "latch"},
    {"rewrite", "rewrite"},   {"exec", "execute"},
    {"maintain", "maintain"}, {"wal_commit", "wal_commit"},
};

/// Per-statement cost attribution. One QueryStats rides through a single
/// statement's lifetime — created by the service's statement front door,
/// hung on the ExecContext for reads and passed into the write path — and
/// each Phase scope adds the time it covered. The service reports it in
/// EXPLAIN ANALYZE, attaches it to SLOWLOG entries, and folds it into
/// per-fingerprint aggregates for the view advisor.
///
/// Phase times are disjoint wall-clock intervals, so their sum approximates
/// the statement's total wall time; the gap (total minus phase sum) is
/// dispatch overhead outside any timed phase and should stay within a few
/// percent (asserted by observability_test and measured in E19).
struct QueryStats {
  // --- disjoint phase times, indexed by QueryPhase ---
  /// Nanoseconds, so sums lose nothing to per-scope rounding: the phase
  /// sum in microseconds never exceeds total_micros, and falls short of it
  /// only by time no phase covered.
  std::array<uint64_t, kNumPhases> phase_nanos{};
  uint64_t total_micros = 0;  // wall clock for the whole statement

  // --- plan provenance ---
  uint64_t fingerprint = 0;  // canonical IR fingerprint (0 for writes)
  /// Database epoch the statement ran against; 0 when it touched no data
  /// (control statements, DDL, writes buffered into BEGIN WRITE). Only
  /// statements with an epoch reach the slow log and the profiles.
  uint64_t epoch = 0;
  bool cache_hit = false;    // plan served from the plan cache
  bool degraded = false;     // fell back to the unrewritten plan

  // --- work counters ---
  uint64_t rows_processed = 0;      // operator row charges (ExecContext)
  uint64_t buffer_pool_hits = 0;    // storage buffer-pool hits
  uint64_t buffer_pool_misses = 0;  // storage buffer-pool misses
  uint64_t pages_read = 0;          // pages fetched from disk
  uint64_t pages_written = 0;       // pages flushed to disk
  uint64_t wal_bytes = 0;           // WAL bytes appended for this statement

  uint64_t micros(QueryPhase phase) const {
    return phase_nanos[static_cast<size_t>(phase)] / 1000;
  }

  /// Sum of the disjoint phases — compare against total_micros to see how
  /// much wall time the attribution accounts for.
  uint64_t PhaseSumMicros() const {
    uint64_t sum = 0;
    for (uint64_t n : phase_nanos) sum += n;
    return sum / 1000;
  }

  /// "parse=12us latch=0us rewrite=87us exec=16us maintain=0us
  /// wal_commit=0us": every phase, in table order, under its one label.
  std::string PhaseText() const {
    std::string out;
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (i > 0) out += ' ';
      out += kPhaseNames[i].label;
      out += '=';
      out += std::to_string(phase_nanos[i] / 1000);
      out += "us";
    }
    return out;
  }

  void Add(const QueryStats& o) {
    for (size_t i = 0; i < kNumPhases; ++i) phase_nanos[i] += o.phase_nanos[i];
    total_micros += o.total_micros;
    rows_processed += o.rows_processed;
    buffer_pool_hits += o.buffer_pool_hits;
    buffer_pool_misses += o.buffer_pool_misses;
    pages_read += o.pages_read;
    pages_written += o.pages_written;
    wal_bytes += o.wal_bytes;
  }
};

/// The latency histogram each phase records into (null: not recorded).
/// Resolved once at service construction — MetricsRegistry lookups take the
/// registry mutex, which no statement should.
using PhaseLatencies = std::array<LatencyHistogram*, kNumPhases>;

/// The one instrumentation point of a statement phase. The scope opens the
/// phase's trace span; on exit — End() or destruction, success or error —
/// it adds its elapsed time to the phase's QueryStats slot and records it
/// in the phase's histogram.
///
/// Scopes nest: time spent in an inner Phase is charged to the inner phase
/// only, so a write's exec scope can enclose its maintain and wal_commit
/// scopes and still report just its own work. With tracing off a Phase
/// costs two clock reads, a few adds and the histogram's relaxed atomics;
/// it never allocates.
///
///   {
///     Phase exec(QueryPhase::kExec, &stats, latencies);
///     ... evaluate ...
///   }
class Phase {
 public:
  Phase(QueryPhase phase, QueryStats* stats, const PhaseLatencies& latencies)
      : span_(kPhaseNames[static_cast<size_t>(phase)].span),
        stats_(stats),
        latency_(latencies[static_cast<size_t>(phase)]),
        slot_(static_cast<size_t>(phase)),
        parent_(current_),
        start_(Clock::now()) {
    current_ = this;
  }
  ~Phase() { End(); }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Closes the scope now (idempotent). Scopes must end innermost first.
  void End() {
    if (stats_ == nullptr) return;
    Clock::duration elapsed = Clock::now() - start_;
    uint64_t own = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed - nested_)
            .count());
    stats_->phase_nanos[slot_] += own;
    if (latency_ != nullptr) latency_->Record(own / 1000);
    if (parent_ != nullptr) parent_->nested_ += elapsed;
    current_ = parent_;
    stats_ = nullptr;
    span_.End();
  }

  /// The phase's span, for attributes (guard formatting with active()).
  TraceSpan& span() { return span_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Innermost open Phase on this thread.
  static inline thread_local Phase* current_ = nullptr;

  TraceSpan span_;
  QueryStats* stats_;
  LatencyHistogram* latency_;
  size_t slot_;
  Phase* parent_;
  Clock::duration nested_{0};  // elapsed time of inner scopes, not ours
  Clock::time_point start_;
};

/// Running per-fingerprint aggregate of QueryStats, kept by the service so
/// the advisor can rank statements by where time actually goes rather than
/// by slow-log anecdotes.
struct FingerprintProfile {
  uint64_t fingerprint = 0;
  std::string example;  // one representative statement text
  uint64_t count = 0;
  uint64_t cache_hits = 0;
  QueryStats totals;  // summed attribution across executions
};

}  // namespace aqv

#endif  // AQV_BASE_QUERY_STATS_H_
