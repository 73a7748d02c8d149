// The three seeded workloads. Each one generates its data and its
// statement streams from the seed alone, installs the data through
// QueryService (Bootstrap, then CREATE MATERIALIZED VIEW statements), and
// checks the service's results against an independent evaluation.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <random>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "exec/evaluator.h"
#include "parser/parser.h"
#include "workload/telephony.h"

namespace perfbench {

namespace {

/// Per-client generator seed: distinct streams for distinct clients.
uint64_t ClientSeed(uint64_t seed, int client, uint64_t salt) {
  std::seed_seq seq{seed, static_cast<uint64_t>(client) + 1, salt};
  std::array<uint32_t, 2> words{};
  seq.generate(words.begin(), words.end());
  return (static_cast<uint64_t>(words[0]) << 32) | words[1];
}

aqv::Status Expect(aqv::Result<aqv::StatementResult> result, const char* what) {
  if (result.ok()) return aqv::Status::OK();
  return aqv::Status::Internal(std::string(what) + ": " +
                               result.status().ToString());
}

aqv::Status TablesEqual(const aqv::Table& got, const aqv::Table& want,
                        const std::string& what) {
  if (aqv::MultisetEqual(got, want)) return aqv::Status::OK();
  return aqv::Status::Internal(what + " differs: " +
                               aqv::DescribeMultisetDifference(got, want));
}

/// The unrewritten evaluation of `sql` on a pinned snapshot: parse and run
/// the query as written, with no optimizer in between.
aqv::Result<aqv::Table> Unrewritten(const aqv::ServiceSnapshot& snap,
                                    const std::string& sql) {
  AQV_ASSIGN_OR_RETURN(aqv::Query query, aqv::ParseQuery(sql, &snap.catalog));
  aqv::Evaluator eval(&snap.db, &snap.views);
  return eval.Execute(query);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// warehouse_read: the Example 1.1 telephony warehouse, read-only.

class WarehouseRead : public Workload {
 public:
  WarehouseRead(Scale scale, uint64_t seed) {
    params_.num_calls = scale == Scale::kFull ? 1000000 : 20000;
    params_.num_customers = scale == Scale::kFull ? 10000 : 200;
    params_.num_plans = 20;
    params_.num_years = 3;
    params_.seed = seed;
    // HAVING thresholds at and just above the expected yearly earnings of
    // a plan: each statement keeps a different subset of the 20 plans, and
    // the lowest keeps none only if every plan earns above the mean
    // (probability 2^-20).
    double expected = static_cast<double>(params_.num_calls) /
                      (params_.num_plans * params_.num_years) *
                      (0.05 + params_.max_charge) / 2;
    for (int year = 0; year < params_.num_years; ++year) {
      for (double share : {1.0, 1.01, 1.02}) {
        pool_.push_back(PlanEarnings(params_.first_year + year,
                                     expected * share));
      }
      pool_.push_back(YearlyEarnings(params_.first_year + year));
    }
    for (int c = 0; c < clients(); ++c) rngs_.emplace_back(ClientSeed(seed, c, 1));
  }

  std::vector<std::pair<std::string, std::string>> Describe() const override {
    return {{"calls", std::to_string(params_.num_calls)},
            {"customers", std::to_string(params_.num_customers)},
            {"plans", std::to_string(params_.num_plans)},
            {"years", std::to_string(params_.num_years)},
            {"views", "V1 (monthly plan earnings), V2 (yearly plan earnings)"},
            {"agg_rewrite_statements", std::to_string(pool_.size())},
            {"mix", "agg_rewrite:agg_scan:join_agg = 1:1:1, uniform"},
            {"clients", std::to_string(clients())},
            {"storage", "none (in-memory)"}};
  }

  int clients() const override { return 2; }

  aqv::Result<SetupTimes> Setup() override {
    service_.reset();
    SetupTimes times;
    Clock::time_point t0 = Clock::now();
    aqv::TelephonyWorkload w = aqv::MakeTelephonyWorkload(params_);
    times.generate_s = SecondsSince(t0);
    Clock::time_point t1 = Clock::now();
    service_ = std::make_unique<aqv::QueryService>();
    AQV_RETURN_NOT_OK(service_->Bootstrap(std::move(w.catalog),
                                          std::move(w.db), std::move(w.views)));
    AQV_RETURN_NOT_OK(Expect(service_->Execute("REFRESH V1"), "REFRESH V1"));
    AQV_RETURN_NOT_OK(
        Expect(service_->Execute(
                   "CREATE MATERIALIZED VIEW V2 AS SELECT Plan_Id_1, Year_1, "
                   "SUM(Charge_1) AS Yearly FROM Calls GROUPBY Plan_Id_1, "
                   "Year_1"),
               "CREATE V2"));
    times.bootstrap_s = SecondsSince(t1);
    return times;
  }

  aqv::QueryService& service() override { return *service_; }

  Statement Next(int client) override {
    std::mt19937_64& rng = rngs_[static_cast<size_t>(client)];
    Statement s;
    char buf[512];
    switch (rng() % 3) {
      case 0:
        s.cls = StmtClass::kAggRewrite;
        s.sql = pool_[rng() % pool_.size()];
        break;
      case 1:
        s.cls = StmtClass::kAggScan;
        std::snprintf(buf, sizeof(buf),
                      "SELECT Cust_Id_1, SUM(Charge_1) AS Spend FROM Calls "
                      "WHERE Cust_Id_1 = %d GROUPBY Cust_Id_1",
                      static_cast<int>(rng() % params_.num_customers));
        s.sql = buf;
        break;
      default:
        s.cls = StmtClass::kJoinAgg;
        std::snprintf(buf, sizeof(buf),
                      "SELECT Area_Code_2, SUM(Charge_1) AS Spend FROM Calls, "
                      "Customer WHERE Cust_Id_1 = Cust_Id_2 AND Year_1 = %d "
                      "AND Month_1 = %d GROUPBY Area_Code_2",
                      params_.first_year +
                          static_cast<int>(rng() % params_.num_years),
                      1 + static_cast<int>(rng() % 12));
        s.sql = buf;
        break;
    }
    return s;
  }

  /// Every agg_rewrite statement must be answered from a view, with the
  /// rows of the unrewritten query evaluated on a pinned snapshot (up to
  /// the rounding of re-associated DOUBLE sums).
  aqv::Status CheckBefore() override {
    aqv::ServiceSnapshotPtr snap = service_->PinSnapshot();
    reference_.clear();
    for (const std::string& sql : pool_) {
      AQV_ASSIGN_OR_RETURN(aqv::StatementResult got, service_->Execute(sql));
      if (!got.used_materialized_view || !got.table.has_value()) {
        return aqv::Status::Internal("not answered from a view: " + sql);
      }
      AQV_ASSIGN_OR_RETURN(aqv::Table want, Unrewritten(*snap, sql));
      if (want.num_rows() == 0) {
        return aqv::Status::Internal("empty reference result: " + sql);
      }
      if (!aqv::MultisetAlmostEqual(*got.table, want)) {
        return aqv::Status::Internal(
            "rewritten result differs from the unrewritten query: " + sql +
            "\n" + aqv::DescribeMultisetDifference(*got.table, want));
      }
      reference_.push_back(std::move(want));
    }
    return aqv::Status::OK();
  }

  /// The workload is read-only, so after the timed phase every agg_rewrite
  /// statement must still return its checked reference rows.
  aqv::Status CheckAfter(SideMetrics*) override {
    for (size_t i = 0; i < pool_.size(); ++i) {
      AQV_ASSIGN_OR_RETURN(aqv::StatementResult got, service_->Execute(pool_[i]));
      if (!got.table.has_value() ||
          !aqv::MultisetAlmostEqual(*got.table, reference_[i])) {
        return aqv::Status::Internal("result changed during the run: " +
                                     pool_[i]);
      }
    }
    return aqv::Status::OK();
  }

 private:
  static std::string PlanEarnings(int year, double threshold) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "SELECT Plan_Id_2, Plan_Name_2, SUM(Charge_1) AS Total "
                  "FROM Calls, Calling_Plans "
                  "WHERE Plan_Id_1 = Plan_Id_2 AND Year_1 = %d "
                  "GROUPBY Plan_Id_2, Plan_Name_2 HAVING SUM(Charge_1) < %.1f",
                  year, threshold);
    return buf;
  }

  static std::string YearlyEarnings(int year) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT Plan_Id_1, SUM(Charge_1) AS Yearly FROM Calls "
                  "WHERE Year_1 = %d GROUPBY Plan_Id_1",
                  year);
    return buf;
  }

  aqv::TelephonyParams params_;
  std::vector<std::string> pool_;
  std::vector<aqv::Table> reference_;  // unrewritten rows of each pool_ entry
  std::vector<std::mt19937_64> rngs_;
  std::unique_ptr<aqv::QueryService> service_;
};

// ---------------------------------------------------------------------------
// dml_mixed: single-row writes beside reads on an in-memory T(A, B).

class DmlMixed : public Workload {
 public:
  DmlMixed(Scale scale, uint64_t seed)
      : rows_(scale == Scale::kFull ? 200000 : 2000),
        groups_(64),
        by_group_(static_cast<size_t>(groups_)),
        rng_(ClientSeed(seed, 0, 2)) {
    // The initial table: B = 0..rows-1 unique, A uniform over the groups.
    std::mt19937_64 data(ClientSeed(seed, 0, 3));
    initial_.reserve(static_cast<size_t>(rows_));
    for (int64_t b = 0; b < rows_; ++b) {
      int64_t a = static_cast<int64_t>(data() % static_cast<uint64_t>(groups_));
      initial_.emplace_back(a, b);
      AddRow(a, b);
    }
    next_b_ = rows_;
  }

  std::vector<std::pair<std::string, std::string>> Describe() const override {
    return {{"rows", std::to_string(rows_)},
            {"groups", std::to_string(groups_)},
            {"views", "V = SUM(B), COUNT(B) by A; VM = MAX(B), COUNT(B) by A"},
            {"cycle",
             "INSERT, point_select, DELETE by B, agg_rewrite (SUM(B) by A), "
             "UPDATE by B, point_select"},
            {"delete_max_share", Num(kDeleteMaxShare)},
            {"clients", std::to_string(clients())},
            {"storage", "none (in-memory)"}};
  }

  int clients() const override { return 1; }

  aqv::Result<SetupTimes> Setup() override {
    service_.reset();
    SetupTimes times;
    Clock::time_point t0 = Clock::now();
    std::vector<aqv::Row> rows;
    rows.reserve(initial_.size());
    for (const auto& [a, b] : initial_) {
      rows.push_back({aqv::Value::Int64(a), aqv::Value::Int64(b)});
    }
    aqv::Table t({"A", "B"});
    AQV_RETURN_NOT_OK(t.AddRows(std::move(rows)));
    times.generate_s = SecondsSince(t0);

    Clock::time_point t1 = Clock::now();
    aqv::TableDef def("T", {"A", "B"});
    AQV_RETURN_NOT_OK(def.AddKeyByName({"B"}));
    aqv::Catalog catalog;
    AQV_RETURN_NOT_OK(catalog.AddTable(def));
    aqv::Database db;
    db.Put("T", std::move(t));
    service_ = std::make_unique<aqv::QueryService>();
    AQV_RETURN_NOT_OK(
        service_->Bootstrap(std::move(catalog), std::move(db), {}));
    AQV_RETURN_NOT_OK(Expect(
        service_->Execute("CREATE MATERIALIZED VIEW V AS SELECT A_1, "
                          "SUM(B_1) AS S, COUNT(B_1) AS N FROM T GROUPBY A_1"),
        "CREATE V"));
    AQV_RETURN_NOT_OK(Expect(
        service_->Execute("CREATE MATERIALIZED VIEW VM AS SELECT A_1, "
                          "MAX(B_1) AS M, COUNT(B_1) AS N FROM T GROUPBY A_1"),
        "CREATE VM"));
    times.bootstrap_s = SecondsSince(t1);
    return times;
  }

  aqv::QueryService& service() override { return *service_; }

  Statement Next(int) override {
    Statement s;
    char buf[256];
    switch (step_++ % 6) {
      case 0: {  // INSERT a fresh row
        int64_t a = RandomGroup();
        int64_t b = next_b_++;
        AddRow(a, b);
        last_b_ = b;
        s.cls = StmtClass::kDmlRow;
        s.table = "T";
        std::snprintf(buf, sizeof(buf),
                      "INSERT INTO T VALUES (%" PRId64 ", %" PRId64 ")", a, b);
        s.sql = buf;
        break;
      }
      case 1:
      case 5:  // point select of the row the last write touched
        s.cls = StmtClass::kPointSelect;
        s.sql = PointSelect(last_b_);
        break;
      case 2: {  // DELETE: a group's current max (VM recomputes) or any row
        int64_t b = 0;
        if (std::uniform_real_distribution<double>(0, 1)(rng_) <
            kDeleteMaxShare) {
          const std::set<int64_t>* group = nullptr;
          do {
            group = &by_group_[static_cast<size_t>(RandomGroup())];
          } while (group->empty());
          b = *group->rbegin();
        } else {
          b = RandomLiveB();
        }
        RemoveRow(b);
        s.cls = StmtClass::kDmlRow;
        s.table = "T";
        std::snprintf(buf, sizeof(buf), "DELETE FROM T WHERE B = %" PRId64, b);
        s.sql = buf;
        s.match_sql = PointSelect(b);
        break;
      }
      case 3:
        s.cls = StmtClass::kAggRewrite;
        s.sql = "SELECT A_1, SUM(B_1) AS S FROM T GROUPBY A_1";
        break;
      default: {  // UPDATE: move a random row to another group
        int64_t b = RandomLiveB();
        int64_t from = a_of_b_[b];
        int64_t to = (from + 1 +
                      static_cast<int64_t>(
                          rng_() % static_cast<uint64_t>(groups_ - 1))) %
                     groups_;
        RemoveRow(b);
        AddRow(to, b);
        last_b_ = b;
        s.cls = StmtClass::kDmlRow;
        s.table = "T";
        std::snprintf(buf, sizeof(buf),
                      "UPDATE T SET A = %" PRId64 " WHERE B = %" PRId64, to, b);
        s.sql = buf;
        s.match_sql = PointSelect(b);
        s.set_column = 0;
        s.set_value = aqv::Value::Int64(to);
        break;
      }
    }
    return s;
  }

  /// T must equal the benchmark's row model, and V and VM their recompute.
  aqv::Status CheckAfter(SideMetrics*) override {
    aqv::ServiceSnapshotPtr snap = service_->PinSnapshot();
    aqv::Table model({"A", "B"});
    std::vector<aqv::Row> rows;
    rows.reserve(a_of_b_.size());
    for (const auto& [b, a] : a_of_b_) {
      rows.push_back({aqv::Value::Int64(a), aqv::Value::Int64(b)});
    }
    AQV_RETURN_NOT_OK(model.AddRows(std::move(rows)));
    AQV_ASSIGN_OR_RETURN(const aqv::Table* t, snap->db.Get("T"));
    AQV_RETURN_NOT_OK(TablesEqual(*t, model, "T against the row model"));
    for (const char* view : {"V", "VM"}) {
      AQV_ASSIGN_OR_RETURN(const aqv::ViewDef* def, snap->views.Get(view));
      aqv::Evaluator eval(&snap->db, &snap->views);
      AQV_ASSIGN_OR_RETURN(aqv::Table fresh, eval.Execute(def->query));
      AQV_ASSIGN_OR_RETURN(const aqv::Table* stored, snap->db.Get(view));
      AQV_RETURN_NOT_OK(TablesEqual(*stored, fresh,
                                    std::string(view) + " against its recompute"));
    }
    return aqv::Status::OK();
  }

 private:
  static constexpr double kDeleteMaxShare = 0.25;

  static std::string PointSelect(int64_t b) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "SELECT A_1, B_1 FROM T WHERE B_1 = %" PRId64, b);
    return buf;
  }

  int64_t RandomGroup() {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(groups_));
  }

  int64_t RandomLiveB() { return live_[rng_() % live_.size()]; }

  void AddRow(int64_t a, int64_t b) {
    a_of_b_[b] = a;
    by_group_[static_cast<size_t>(a)].insert(b);
    pos_[b] = live_.size();
    live_.push_back(b);
  }

  void RemoveRow(int64_t b) {
    int64_t a = a_of_b_[b];
    a_of_b_.erase(b);
    by_group_[static_cast<size_t>(a)].erase(b);
    size_t i = pos_[b];
    live_[i] = live_.back();
    pos_[live_[i]] = i;
    live_.pop_back();
    pos_.erase(b);
  }

  const int64_t rows_;
  const int64_t groups_;
  std::vector<std::pair<int64_t, int64_t>> initial_;  // (A, B)
  // The row model: B -> A, rows per group ordered by B, and a dense list
  // of live B values for uniform sampling.
  std::unordered_map<int64_t, int64_t> a_of_b_;
  std::vector<std::set<int64_t>> by_group_;
  std::vector<int64_t> live_;
  std::unordered_map<int64_t, size_t> pos_;
  std::mt19937_64 rng_;
  uint64_t step_ = 0;
  int64_t next_b_ = 0;
  int64_t last_b_ = 0;
  std::unique_ptr<aqv::QueryService> service_;
};

// ---------------------------------------------------------------------------
// durable_ingest: two writers appending batches to durable fact tables.

class DurableIngest : public Workload {
 public:
  DurableIngest(Scale scale, uint64_t seed, const std::string& work_dir)
      : preload_(scale == Scale::kFull ? 200000 : 2000),
        batch_(scale == Scale::kFull ? 1000 : 100),
        seed_(seed),
        work_dir_(work_dir) {
    path_ = (std::filesystem::path(work_dir) / "durable_ingest.aqvdb").string();
    // The flush policy: fsync every commit, group commit on, and an
    // auto-checkpoint every kCheckpointCommits commits; everything else
    // stays at the ServiceOptions defaults.
    options_.storage_path = path_;
    options_.storage_fsync_wal = true;
    options_.storage_group_commit = true;
    options_.storage_auto_checkpoint_commits =
        scale == Scale::kFull ? kCheckpointCommits : 8;
    storage_.path = path_;
    storage_.buffer_pool_pages = options_.storage_buffer_pages;
    storage_.fsync_wal = options_.storage_fsync_wal;
    storage_.group_commit = options_.storage_group_commit;
    storage_.group_commit_window_micros =
        options_.storage_group_commit_window_micros;
    storage_.staged_replay = options_.storage_staged_replay;
    storage_.auto_checkpoint_wal_bytes =
        options_.storage_auto_checkpoint_wal_bytes;
    storage_.auto_checkpoint_commits = options_.storage_auto_checkpoint_commits;
    storage_.backpressure_wal_bytes = options_.storage_backpressure_wal_bytes;
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(ClientSeed(seed, c, 4));
      next_k_.push_back(preload_);
    }
  }

  std::vector<std::pair<std::string, std::string>> Describe() const override {
    return {{"tables", "F0(K, G, V), F1(K, G, V)"},
            {"preload_rows_per_table", std::to_string(preload_)},
            {"views", "S<i> = SUM(V), COUNT(V) by G over F<i>"},
            {"batch_rows", std::to_string(batch_)},
            {"clients", std::to_string(clients()) +
                            " writers, writer i appends to F<i>"},
            {"flush_policy",
             "fsync every commit, group commit on (window " +
                 std::to_string(options_.storage_group_commit_window_micros) +
                 " us), auto-checkpoint every " +
                 std::to_string(options_.storage_auto_checkpoint_commits) +
                 " commits or " +
                 std::to_string(options_.storage_auto_checkpoint_wal_bytes) +
                 " WAL bytes, backpressure at " +
                 std::to_string(options_.storage_backpressure_wal_bytes) +
                 " WAL bytes, " + std::to_string(options_.storage_buffer_pages) +
                 " buffer-pool pages"}};
  }

  int clients() const override { return 2; }

  const aqv::StorageOptions* storage_options() const override {
    return &storage_;
  }

  aqv::Result<SetupTimes> Setup() override {
    service_.reset();
    RemoveFiles(path_);
    std::error_code ec;
    std::filesystem::create_directories(work_dir_, ec);
    if (ec) return aqv::Status::Internal("cannot create " + work_dir_);

    SetupTimes times;
    Clock::time_point t0 = Clock::now();
    aqv::Catalog catalog;
    aqv::Database db;
    std::mt19937_64 data(ClientSeed(seed_, 0, 5));
    for (int i = 0; i < clients(); ++i) {
      aqv::TableDef def(FactTable(i), {"K", "G", "V"});
      AQV_RETURN_NOT_OK(def.AddKeyByName({"K"}));
      AQV_RETURN_NOT_OK(catalog.AddTable(def));
      std::vector<aqv::Row> rows;
      rows.reserve(static_cast<size_t>(preload_));
      for (int64_t k = 0; k < preload_; ++k) rows.push_back(FactRow(k, data));
      aqv::Table t({"K", "G", "V"});
      AQV_RETURN_NOT_OK(t.AddRows(std::move(rows)));
      db.Put(FactTable(i), std::move(t));
    }
    times.generate_s = SecondsSince(t0);

    Clock::time_point t1 = Clock::now();
    service_ = std::make_unique<aqv::QueryService>(options_);
    AQV_RETURN_NOT_OK(service_->storage_status());
    AQV_RETURN_NOT_OK(
        service_->Bootstrap(std::move(catalog), std::move(db), {}));
    for (int i = 0; i < clients(); ++i) {
      std::string view = "CREATE MATERIALIZED VIEW S" + std::to_string(i) +
                         " AS SELECT G_1, SUM(V_1) AS S, COUNT(V_1) AS N FROM " +
                         FactTable(i) + " GROUPBY G_1";
      AQV_RETURN_NOT_OK(Expect(service_->Execute(view), "CREATE S<i>"));
    }
    times.bootstrap_s = SecondsSince(t1);
    return times;
  }

  aqv::QueryService& service() override { return *service_; }

  Statement Next(int client) override {
    std::mt19937_64& rng = rngs_[static_cast<size_t>(client)];
    Statement s;
    s.cls = StmtClass::kBatchCommit;
    s.table = FactTable(client);
    s.sql = "INSERT INTO " + s.table + " VALUES ";
    std::string encoded;
    for (int i = 0; i < batch_; ++i) {
      aqv::Row row = FactRow(next_k_[static_cast<size_t>(client)]++, rng);
      encoded.clear();
      aqv::EncodeRow(row, &encoded);
      s.user_bytes += encoded.size();
      if (i > 0) s.sql += ", ";
      s.sql += "(" + row[0].ToString() + ", " + row[1].ToString() + ", " +
               row[2].ToString() + ")";
    }
    return s;
  }

  /// Closes the service and recovers copies of its files. The recovered
  /// tables and views must equal the snapshot pinned just before close,
  /// and each fact table must hold every row of every acknowledged batch.
  aqv::Status CheckAfter(SideMetrics* side) override {
    aqv::ServiceSnapshotPtr before = service_->PinSnapshot();
    service_.reset();

    std::vector<double> recovery_s, open_us, replayed, pages_read;
    std::unique_ptr<aqv::QueryService> recovered;
    for (int copy = 0; copy < kRecoveryCopies; ++copy) {
      std::string path = path_ + ".copy" + std::to_string(copy);
      RemoveFiles(path);
      std::error_code ec;
      std::filesystem::copy_file(path_, path, ec);
      if (!ec) std::filesystem::copy_file(path_ + ".wal", path + ".wal", ec);
      if (ec) return aqv::Status::Internal("cannot copy " + path_);

      // StorageEngine::Open alone: recovery's storage share.
      aqv::StorageOptions sopts = storage_;
      sopts.path = path;
      aqv::MetricsRegistry metrics;
      Clock::time_point t0 = Clock::now();
      AQV_ASSIGN_OR_RETURN(std::unique_ptr<aqv::StorageEngine> engine,
                           aqv::StorageEngine::Open(sopts, &metrics));
      open_us.push_back(MicrosBetween(t0, Clock::now()));
      replayed.push_back(
          static_cast<double>(metrics.GetCounter("storage.wal_replayed").value()));
      pages_read.push_back(
          static_cast<double>(metrics.GetCounter("storage.pages_read").value()));
      engine.reset();

      // The whole restart: a service on the file, accepting statements.
      aqv::ServiceOptions opts = options_;
      opts.storage_path = path;
      Clock::time_point t1 = Clock::now();
      auto service = std::make_unique<aqv::QueryService>(opts);
      AQV_RETURN_NOT_OK(service->storage_status());
      AQV_RETURN_NOT_OK(Expect(
          service->Execute("SELECT K_1, V_1 FROM F0 WHERE K_1 = 0"),
          "first statement after recovery"));
      recovery_s.push_back(SecondsSince(t1));
      if (copy == 0) recovered = std::move(service);
    }
    (*side)["service.recovery_s"] = Median(recovery_s);
    (*side)["storage.open_us"] = Median(open_us);
    (*side)["storage.wal_replayed"] = Median(replayed);
    (*side)["storage.recovery_pages_read"] = Median(pages_read);

    aqv::ServiceSnapshotPtr after = recovered->PinSnapshot();
    for (int i = 0; i < clients(); ++i) {
      for (const std::string& name : {FactTable(i), "S" + std::to_string(i)}) {
        AQV_ASSIGN_OR_RETURN(const aqv::Table* want, before->db.Get(name));
        AQV_ASSIGN_OR_RETURN(const aqv::Table* got, after->db.Get(name));
        AQV_RETURN_NOT_OK(TablesEqual(*got, *want, "recovered " + name));
      }
      AQV_ASSIGN_OR_RETURN(const aqv::Table* fact,
                           after->db.Get(FactTable(i)));
      if (static_cast<int64_t>(fact->num_rows()) !=
          next_k_[static_cast<size_t>(i)]) {
        return aqv::Status::Internal(
            "recovered " + FactTable(i) + " holds " +
            std::to_string(fact->num_rows()) + " rows, expected " +
            std::to_string(next_k_[static_cast<size_t>(i)]));
      }
    }
    return aqv::Status::OK();
  }

 private:
  static constexpr uint64_t kCheckpointCommits = 64;
  static constexpr int kRecoveryCopies = 3;

  static std::string FactTable(int i) { return "F" + std::to_string(i); }

  static aqv::Row FactRow(int64_t k, std::mt19937_64& rng) {
    return {aqv::Value::Int64(k), aqv::Value::Int64(static_cast<int64_t>(rng() % 64)),
            aqv::Value::Int64(static_cast<int64_t>(rng() % 1000))};
  }

  static void RemoveFiles(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".wal", ec);
  }

  const int64_t preload_;
  const int batch_;
  const uint64_t seed_;
  const std::string work_dir_;
  std::string path_;
  aqv::ServiceOptions options_;
  aqv::StorageOptions storage_;
  std::vector<std::mt19937_64> rngs_;
  std::vector<int64_t> next_k_;
  std::unique_ptr<aqv::QueryService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Scale scale,
                                       uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "warehouse_read") return std::make_unique<WarehouseRead>(scale, seed);
  if (name == "dml_mixed") return std::make_unique<DmlMixed>(scale, seed);
  if (name == "durable_ingest") {
    return std::make_unique<DurableIngest>(scale, seed, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
