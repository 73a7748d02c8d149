// perfbench: the repository benchmark. Drives QueryService::Execute from
// closed-loop client threads over one seeded workload, checks the results,
// and prints the run header, every metric by name with its unit, and, as the
// last line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// then a traced phase (the layer-by-layer replay of trace.h) and reports
// the per-layer metrics. See perfbench/README.md for the metric definitions.
//
//   perfbench --workload dml_mixed --seed 1 --seconds 30 --trace 0
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kHashedStatements = 256;  // per client, for the stream hash
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Scale scale = Scale::kFull;
  std::string out_dir = "perfbench-out";
  std::string work_dir;  // durable files; removed when the run ends
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] "
               "[--out-dir DIR] [--git-sha SHA]\n",
               msg);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    std::string v = argv[++i];
    if (arg == "--workload") {
      f.workload = v;
    } else if (arg == "--seed") {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      f.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      f.trace = std::atoi(v.c_str());
    } else if (arg == "--scale") {
      if (v != "full" && v != "tiny") Usage("--scale is full or tiny");
      f.scale = v == "full" ? Scale::kFull : Scale::kTiny;
    } else if (arg == "--out-dir") {
      f.out_dir = v;
    } else if (arg == "--git-sha") {
      f.git_sha = v;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (f.workload.empty()) Usage("--workload is required");
  if (!(f.seconds > 0) || (f.trace != 0 && f.trace != 1)) {
    Usage("need --seconds > 0 and --trace 0|1");
  }
  f.work_dir = f.out_dir + "/work-" + std::to_string(getpid());
  return f;
}

/// Nearest-rank percentile; 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of the first kHashedStatements statements of every client stream
/// of a fresh instance: equal seeds must give equal hashes.
uint64_t StreamHash(const Flags& f) {
  std::unique_ptr<Workload> w = MakeWorkload(f.workload, f.scale, f.seed, "");
  uint64_t h = 14695981039346656037ull;
  for (int c = 0; c < w->clients(); ++c) {
    for (size_t i = 0; i < kHashedStatements; ++i) {
      Statement s = w->Next(c);
      h = Fnv1a(h, std::string(ClassName(s.cls)) + "|" + s.sql + "\n");
    }
  }
  return h;
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------------------
// Timed phases.

/// One traced statement: what the replay observed, and the range of the
/// client's spans that belong to it.
struct StatementRecord {
  StmtClass cls = StmtClass::kAggRewrite;
  bool cache_hit = false;  // the service's plan-cache verdict
  ReplayOutcome outcome;
  size_t first_span = 0;
  size_t end_span = 0;
};

struct ClientResult {
  std::array<std::vector<double>, kNumClasses> latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;  // encoded bytes of the acknowledged INSERT rows
  Clock::time_point finished;
  Tracer tracer;
  std::vector<StatementRecord> records;
  size_t mvcc_versions_max = 0;
  size_t mvcc_bytes_max = 0;
  std::string error;  // a replay failure or a replay/service mismatch
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  double elapsed_s = 0;
  aqv::ServiceStats before;
  aqv::ServiceStats after;

  uint64_t attempted() const {
    uint64_t n = 0;
    for (const ClientResult& c : clients) n += c.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const ClientResult& c : clients) n += c.failed;
    return n;
  }
  std::vector<double> Latencies(int cls) const {
    std::vector<double> all;
    for (const ClientResult& c : clients) {
      const std::vector<double>& v = c.latency_us[static_cast<size_t>(cls)];
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (int cls = 0; cls < kNumClasses; ++cls) {
      std::vector<double> v = Latencies(cls);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  double Throughput() const {
    return static_cast<double>(attempted() - failed()) / elapsed_s;
  }
};

void RunClient(Workload& workload, int client, Clock::time_point deadline,
               Replayer* replayer, ClientResult* out) {
  aqv::QueryService& service = workload.service();
  uint64_t stmt_id = 0;
  while (Clock::now() < deadline) {
    Statement stmt = workload.Next(client);
    ++out->attempted;
    StatementRecord record;
    record.cls = stmt.cls;
    Tracer& tracer = out->tracer;
    aqv::Status replayed = aqv::Status::OK();
    if (replayer != nullptr) {
      record.first_span = tracer.spans().size();
      tracer.BeginStatement(stmt_id++, stmt.cls);
      replayed = replayer->Replay(stmt, tracer, &record.outcome);
    }
    int32_t exec_span = replayer ? tracer.Open("service.execute") : -1;
    Clock::time_point t0 = Clock::now();
    aqv::Result<aqv::StatementResult> result = service.Execute(stmt.sql);
    double micros = MicrosBetween(t0, Clock::now());
    if (replayer != nullptr) {
      tracer.Close(exec_span);
      tracer.EndStatement();
      record.end_span = tracer.spans().size();
      // The traced statement's latency is its whole root span.
      micros = tracer.spans()[record.first_span].micros();
    }

    std::vector<double>& samples =
        out->latency_us[static_cast<size_t>(stmt.cls)];
    if (!result.ok()) {
      if (out->failed++ == 0) {
        std::fprintf(stderr, "perfbench: statement failed: %s\n  %.200s\n",
                     result.status().ToString().c_str(), stmt.sql.c_str());
      }
      continue;  // the run fails: a failure misses every latency limit
    }
    samples.push_back(micros);
    out->user_bytes += stmt.user_bytes;
    if (replayer == nullptr) continue;

    record.cache_hit = result->cache_hit;
    if (!replayed.ok()) {
      out->error = "replay failed: " + replayed.ToString() + "\n  " + stmt.sql;
      break;
    }
    if (IsSelect(stmt.cls) &&
        (!result->table.has_value() ||
         !aqv::MultisetAlmostEqual(*result->table, *record.outcome.result))) {
      out->error = "replayed result differs from the service's: " + stmt.sql;
      break;
    }
    record.outcome.result.reset();
    for (const aqv::Database::TableMvcc& t : service.Stats().mvcc) {
      out->mvcc_versions_max = std::max(out->mvcc_versions_max, t.versions_alive);
      out->mvcc_bytes_max = std::max(out->mvcc_bytes_max, t.bytes_pinned);
    }
    out->records.push_back(std::move(record));
  }
  out->finished = Clock::now();
}

PhaseResult RunPhase(Workload& workload, double seconds, Replayer* replayer) {
  PhaseResult phase;
  phase.clients.resize(static_cast<size_t>(workload.clients()));
  phase.before = workload.service().Stats();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.clients(); ++c) {
    threads.emplace_back(RunClient, std::ref(workload), c, deadline, replayer,
                         &phase.clients[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point end = start;
  for (const ClientResult& c : phase.clients) end = std::max(end, c.finished);
  phase.elapsed_s = std::chrono::duration<double>(end - start).count();
  phase.after = workload.service().Stats();
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& list() const { return list_; }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < list_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", list_[i].value);
      out += (i ? ", \"" : "\"") + list_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + list_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

/// Per-statement time in each layer call, from the statement's spans.
struct LayerTimes {
  double parse = 0, optimize = 0, execute = 0, match = 0, copy = 0,
         maintain = 0, log_commit = 0, service = 0;
};

LayerTimes TimesOf(const StatementRecord& r, const std::vector<Span>& spans) {
  LayerTimes t;
  for (size_t i = r.first_span; i < r.end_span; ++i) {
    const Span& s = spans[i];
    double us = s.micros();
    std::string name = s.name;
    if (name == "parser.parse") t.parse += us;
    else if (name == "rewrite.optimize") t.optimize += us;
    else if (name == "exec.execute") t.execute += us;
    else if (name == "exec.dml_match") t.match += us;
    else if (name == "exec.table_copy") t.copy += us;
    else if (name == "maintain.apply" || name == "maintain.recompute") {
      t.maintain += us;
    } else if (name == "storage.log_commit") t.log_commit += us;
    else if (name == "service.execute") t.service += us;
  }
  return t;
}

/// Durations of every span called `name`, over all clients.
std::vector<double> SpanMicros(const PhaseResult& phase, const char* name) {
  std::vector<double> out;
  for (const ClientResult& c : phase.clients) {
    for (const Span& s : c.tracer.spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.micros());
    }
  }
  return out;
}

void AddEndToEnd(Metrics* m, double setup_s, const PhaseResult& phase,
                 double peak_rss) {
  // The central latency is the geometric mean of the per-class medians:
  // a median over the whole mix lands on a class boundary when the classes
  // split the stream evenly (dml_mixed is half writes), where it jumps
  // between the slowest read and the fastest write from run to run.
  double log_sum = 0;
  int classes = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double> lat = phase.Latencies(c);
    if (lat.empty()) continue;
    log_sum += std::log(Percentile(lat, 0.50));
    ++classes;
  }
  m->Add("setup_s", setup_s, "s");
  m->Add("throughput_sps", phase.Throughput(), "1/s");
  m->Add("class_p50_geomean_us", classes ? std::exp(log_sum / classes) : 0,
         "us");
  m->Add("p95_us", Percentile(phase.AllLatencies(), 0.95), "us");
  m->Add("peak_rss_mb", peak_rss, "MiB");
}

void AddPerLayer(Metrics* m, const PhaseResult& untraced,
                 const PhaseResult& traced, const SetupTimes& setup,
                 const SideMetrics& side, double bytes_per_row) {
  // Per-class service latency of the untraced phase, with sample counts.
  for (int c = 0; c < kNumClasses; ++c) {
    std::string cls = ClassName(static_cast<StmtClass>(c));
    std::vector<double> lat = untraced.Latencies(c);
    m->Add("service.latency_p50_us." + cls, Percentile(lat, 0.50), "us");
    m->Add("service.latency_p99_us." + cls, Percentile(lat, 0.99), "us");
    m->Add("service.samples." + cls, static_cast<double>(lat.size()), "count");
  }

  // Per-class layer times of the traced phase.
  struct ClassTimes {
    std::vector<double> parse, optimize, effective_optimize, execute, match,
        copy, maintain, log_commit, service;
    double rows_in = 0, rows_out = 0;
    double optimized = 0, used_view = 0;
  };
  std::array<ClassTimes, kNumClasses> per;
  double rewritings = 0, optimized = 0;
  for (const ClientResult& client : traced.clients) {
    for (const StatementRecord& r : client.records) {
      LayerTimes t = TimesOf(r, client.tracer.spans());
      ClassTimes& ct = per[static_cast<size_t>(r.cls)];
      ct.parse.push_back(t.parse);
      ct.match.push_back(t.match);
      ct.copy.push_back(t.copy);
      ct.maintain.push_back(t.maintain);
      ct.log_commit.push_back(t.log_commit);
      ct.service.push_back(t.service);
      if (IsSelect(r.cls)) {
        ct.optimize.push_back(t.optimize);
        // A plan-cache hit spares the service the optimize call.
        ct.effective_optimize.push_back(r.cache_hit ? 0 : t.optimize);
        ct.execute.push_back(t.execute);
        ct.rows_in += r.outcome.rows_in;
        ct.rows_out += r.outcome.rows_out;
      }
      if (r.outcome.optimized) {
        ct.optimized += 1;
        ct.used_view += r.outcome.used_view ? 1 : 0;
        optimized += 1;
        rewritings += r.outcome.rewritings_considered;
      }
    }
  }
  for (int c = 0; c < kNumClasses; ++c) {
    StmtClass sc = static_cast<StmtClass>(c);
    std::string cls = ClassName(sc);
    const ClassTimes& ct = per[static_cast<size_t>(c)];
    double parse = Percentile(ct.parse, 0.5);
    m->Add("parser.parse_us." + cls, parse, "us");
    // The replay's first columnar() call builds the pivot the service then
    // shares, so the service never pays it in the traced phase: it is not
    // part of the sum.
    double layers = parse + Percentile(ct.match, 0.5) +
                    Percentile(ct.copy, 0.5) +
                    Percentile(ct.maintain, 0.5) +
                    Percentile(ct.log_commit, 0.5);
    if (IsSelect(sc)) {
      m->Add("rewrite.optimize_us." + cls, Percentile(ct.optimize, 0.5), "us");
      m->Add("rewrite.view_use_ratio." + cls,
             ct.optimized > 0 ? ct.used_view / ct.optimized : 0, "ratio");
      m->Add("exec.execute_us." + cls, Percentile(ct.execute, 0.5), "us");
      m->Add("exec.rows_in_per_row_out." + cls,
             ct.rows_out > 0 ? ct.rows_in / ct.rows_out : 0, "ratio");
      layers += Percentile(ct.effective_optimize, 0.5) +
                Percentile(ct.execute, 0.5);
    }
    m->Add("service.overhead_us." + cls,
           ct.service.empty() ? 0 : Percentile(ct.service, 0.5) - layers, "us");
  }
  m->Add("rewrite.rewritings_considered",
         optimized > 0 ? rewritings / optimized : 0, "count");
  m->Add("rewrite.optimized_selects", optimized, "count");

  // Service counters over the untraced phase.
  const aqv::ServiceStats& b = untraced.before;
  const aqv::ServiceStats& a = untraced.after;
  double hits = static_cast<double>(a.plan_cache_hits - b.plan_cache_hits);
  double misses = static_cast<double>(a.plan_cache_misses - b.plan_cache_misses);
  m->Add("service.plan_cache_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  m->Add("service.plan_cache_hits", hits, "count");
  m->Add("service.plan_cache_misses", misses, "count");
  m->Add("service.bootstrap_s", setup.bootstrap_s, "s");
  auto side_value = [&](const char* name) {
    auto it = side.find(name);
    return it == side.end() ? 0.0 : it->second;
  };
  m->Add("service.recovery_s", side_value("service.recovery_s"), "s");
  m->Add("workload.generate_s", setup.generate_s, "s");

  size_t versions = 0, bytes = 0;
  for (const ClientResult& c : traced.clients) {
    versions = std::max(versions, c.mvcc_versions_max);
    bytes = std::max(bytes, c.mvcc_bytes_max);
  }
  m->Add("exec.columnar_build_us",
         Percentile(SpanMicros(traced, "exec.columnar_build"), 0.5), "us");
  m->Add("exec.table_copy_us",
         Percentile(SpanMicros(traced, "exec.table_copy"), 0.5), "us");
  m->Add("exec.dml_match_us",
         Percentile(SpanMicros(traced, "exec.dml_match"), 0.5), "us");
  m->Add("exec.mvcc_versions_alive_max", static_cast<double>(versions), "count");
  m->Add("exec.mvcc_bytes_pinned_max", static_cast<double>(bytes), "bytes");
  m->Add("exec.bytes_per_row", bytes_per_row, "bytes/row");

  double folded = static_cast<double>(a.views_maintained - b.views_maintained);
  double recomputed =
      static_cast<double>(a.views_recomputed - b.views_recomputed);
  m->Add("maintain.apply_us",
         Percentile(SpanMicros(traced, "maintain.apply"), 0.5), "us");
  m->Add("maintain.recompute_us",
         Percentile(SpanMicros(traced, "maintain.recompute"), 0.5), "us");
  m->Add("maintain.fold_ratio",
         folded + recomputed > 0 ? folded / (folded + recomputed) : 0, "ratio");
  m->Add("maintain.view_updates", folded + recomputed, "count");

  double records = static_cast<double>(a.storage_wal_records -
                                       b.storage_wal_records);
  double fsyncs = static_cast<double>(a.storage_wal_fsyncs - b.storage_wal_fsyncs);
  double written =
      static_cast<double>(a.storage_wal_bytes - b.storage_wal_bytes) +
      static_cast<double>(a.storage_pages_written - b.storage_pages_written) *
          8192.0;
  double user_bytes = 0;
  for (const ClientResult& c : untraced.clients) {
    user_bytes += static_cast<double>(c.user_bytes);
  }
  std::vector<double> checkpoints = SpanMicros(traced, "storage.checkpoint");
  m->Add("storage.log_commit_us",
         Percentile(SpanMicros(traced, "storage.log_commit"), 0.5), "us");
  m->Add("storage.fsyncs_per_commit", records > 0 ? fsyncs / records : 0,
         "ratio");
  m->Add("storage.checkpoint_us.p50", Percentile(checkpoints, 0.5), "us");
  m->Add("storage.checkpoint_us.max", Percentile(checkpoints, 1.0), "us");
  m->Add("storage.checkpoints",
         static_cast<double>(a.storage_checkpoints - b.storage_checkpoints),
         "count");
  m->Add("storage.backpressure_waits",
         static_cast<double>(a.storage_backpressure_waits -
                             b.storage_backpressure_waits),
         "count");
  m->Add("storage.bytes_written_per_user_byte",
         user_bytes > 0 ? written / user_bytes : 0, "ratio");
  m->Add("storage.open_us", side_value("storage.open_us"), "us");
  m->Add("storage.wal_replayed", side_value("storage.wal_replayed"), "count");
  m->Add("storage.recovery_pages_read", side_value("storage.recovery_pages_read"),
         "count");

  // Tracing overhead: the traced phase's end-to-end figures minus the
  // untraced phase's.
  std::vector<double> u = untraced.AllLatencies();
  std::vector<double> t = traced.AllLatencies();
  m->Add("trace.overhead.throughput_sps",
         untraced.Throughput() - traced.Throughput(), "1/s");
  m->Add("trace.overhead.p50_us", Percentile(t, 0.5) - Percentile(u, 0.5), "us");
  m->Add("trace.overhead.p99_us", Percentile(t, 0.99) - Percentile(u, 0.99),
         "us");
}

/// ApproxBytes per row of the largest stored table.
double BytesPerRow(aqv::QueryService& service) {
  aqv::ServiceSnapshotPtr snap = service.PinSnapshot();
  aqv::TablePtr largest;
  for (const std::string& name : snap->db.TableNames()) {
    aqv::TablePtr t = snap->db.GetShared(name);
    if (largest == nullptr || t->num_rows() > largest->num_rows()) largest = t;
  }
  if (largest == nullptr || largest->num_rows() == 0) return 0;
  return static_cast<double>(largest->ApproxBytes()) /
         static_cast<double>(largest->num_rows());
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  return 1;
}

int Run(const Flags& f) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(f.workload, f.scale, f.seed, f.work_dir);
  if (workload == nullptr) Usage(("unknown workload " + f.workload).c_str());

  // ---- Run header. ----
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(StreamHash(f)));
  std::printf("# perfbench run\n");
  std::printf("# workload: %s\n", f.workload.c_str());
  std::printf("# seed: %llu\n", static_cast<unsigned long long>(f.seed));
  std::printf("# seconds: %g\n", f.seconds);
  std::printf("# trace: %d\n", f.trace);
  std::printf("# scale: %s\n", f.scale == Scale::kFull ? "full" : "tiny");
  std::printf("# build_type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# compiler: %s\n", CompilerVersion().c_str());
  std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("# git_sha: %s\n", f.git_sha.c_str());
  std::printf("# loop: closed, %d client thread(s)\n", workload->clients());
  for (const auto& [key, value] : workload->Describe()) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# stream_hash: %s (FNV-1a over the first %zu statements of "
              "each client)\n",
              hash, kHashedStatements);
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::create_directories(f.out_dir, ec);
  if (ec) return Fail("cannot create " + f.out_dir);

  // ---- Set-up, repeated; the last one serves the timed phases. ----
  // At least kMinSetups set-ups and, at full scale, at least
  // kMinSetupSeconds of them, so a set-up of a few milliseconds still gets
  // a steady median.
  std::vector<double> setup_s, generate_s, bootstrap_s;
  double setup_total = 0;
  double min_total = f.scale == Scale::kFull ? kMinSetupSeconds : 0;
  for (int i = 0; i < kMinSetups || setup_total < min_total; ++i) {
    aqv::Result<SetupTimes> times = workload->Setup();
    if (!times.ok()) return Fail("set-up: " + times.status().ToString());
    setup_s.push_back(times->generate_s + times->bootstrap_s);
    setup_total += setup_s.back();
    generate_s.push_back(times->generate_s);
    bootstrap_s.push_back(times->bootstrap_s);
  }
  SetupTimes setup{Median(generate_s), Median(bootstrap_s)};

  aqv::Status before = workload->CheckBefore();
  if (!before.ok()) return Fail("correctness before the run: " + before.ToString());

  // Warm-up: lazy pivots and plan caches fill before anything is timed.
  double warmup_s = f.scale == Scale::kFull ? 1.0 : 0.2;
  PhaseResult warmup = RunPhase(*workload, warmup_s, nullptr);
  if (warmup.failed() > 0) return Fail("statements failed during warm-up");

  // ---- Timed phases. ----
  double untraced_s = f.trace ? f.seconds / 2 : f.seconds;
  PhaseResult untraced = RunPhase(*workload, untraced_s, nullptr);
  PhaseResult traced;
  aqv::MetricsRegistry log_metrics;  // outlives log_engine, which points into it
  std::unique_ptr<aqv::StorageEngine> log_engine;
  if (f.trace) {
    if (const aqv::StorageOptions* opts = workload->storage_options()) {
      aqv::StorageOptions scratch = *opts;
      scratch.path = f.work_dir + "/replay_log.aqvdb";
      aqv::Result<std::unique_ptr<aqv::StorageEngine>> engine =
          aqv::StorageEngine::Open(scratch, &log_metrics);
      if (!engine.ok()) return Fail("scratch engine: " + engine.status().ToString());
      log_engine = std::move(*engine);
    }
    uint64_t every = workload->storage_options()
                         ? workload->storage_options()->auto_checkpoint_commits
                         : 0;
    Replayer replayer(&workload->service(), log_engine.get(), every);
    traced = RunPhase(*workload, f.seconds / 2, &replayer);
    log_engine.reset();
    for (const ClientResult& c : traced.clients) {
      if (!c.error.empty()) return Fail(c.error);
    }
  }
  uint64_t attempted = untraced.attempted() + traced.attempted();
  uint64_t failed = untraced.failed() + traced.failed();
  std::printf("statements attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (failed > 0) {
    return Fail(std::to_string(failed) + " of " + std::to_string(attempted) +
                " statements failed");
  }
  double bytes_per_row = f.trace ? BytesPerRow(workload->service()) : 0;

  SideMetrics side;
  aqv::Status after = workload->CheckAfter(&side);
  if (!after.ok()) return Fail("correctness after the run: " + after.ToString());
  workload.reset();
  std::filesystem::remove_all(f.work_dir, ec);

  // ---- Report. ----
  Metrics metrics;
  if (f.trace) {
    AddPerLayer(&metrics, untraced, traced, setup, side, bytes_per_row);
  } else {
    AddEndToEnd(&metrics, Median(setup_s), untraced, PeakRssMiB());
  }
  // Per-class latencies of the untraced phase, for the classes this
  // workload issues, with their sample counts.
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double> lat = untraced.Latencies(c);
    if (lat.empty()) continue;
    const char* cls = ClassName(static_cast<StmtClass>(c));
    std::printf("e2e %s_p50_us %.1f us\n", cls, Percentile(lat, 0.5));
    std::printf("e2e %s_p99_us %.1f us (%zu samples)\n", cls,
                Percentile(lat, 0.99), lat.size());
  }
  if (auto it = side.find("service.recovery_s"); it != side.end()) {
    std::printf("e2e recovery_s %.4f s\n", it->second);
  }
  for (const Metric& m : metrics.list()) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string base = f.out_dir + "/perfbench-" + f.workload + "-seed" +
                     std::to_string(f.seed) + "-trace" + std::to_string(f.trace);
  if (f.trace) {
    std::vector<std::vector<Span>> spans;
    for (const ClientResult& c : traced.clients) spans.push_back(c.tracer.spans());
    for (const auto& [layer, seconds] : SelfSecondsByLayer(spans)) {
      std::printf("self_time %-12s %.6f s\n", layer.c_str(), seconds);
    }
    aqv::Status written = WriteSpans(base + ".spans.jsonl", spans);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("# spans: %s.spans.jsonl\n", base.c_str());
  }

  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  std::string result = head + metrics.Json() + "}";
  std::ofstream(base + ".result.json") << result << "\n";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseFlags(argc, argv));
}
