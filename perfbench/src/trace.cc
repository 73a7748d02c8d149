#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "exec/evaluator.h"
#include "maintain/incremental.h"
#include "parser/parser.h"
#include "rewrite/optimizer.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* ClassName(StmtClass c) {
  switch (c) {
    case StmtClass::kAggRewrite:
      return "agg_rewrite";
    case StmtClass::kAggScan:
      return "agg_scan";
    case StmtClass::kJoinAgg:
      return "join_agg";
    case StmtClass::kPointSelect:
      return "point_select";
    case StmtClass::kDmlRow:
      return "dml_row";
    case StmtClass::kBatchCommit:
      return "batch_commit";
  }
  return "unknown";
}

void Tracer::BeginStatement(uint64_t stmt, StmtClass cls) {
  stmt_ = stmt;
  cls_ = cls;
  open_.clear();
  Open("perfbench.statement");
}

void Tracer::EndStatement() {
  while (!open_.empty()) Close(open_.back());
}

int32_t Tracer::Open(const char* name) {
  Span span;
  span.stmt = stmt_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cls = cls_;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

Replayer::Replayer(aqv::QueryService* service, aqv::StorageEngine* log_engine,
                   uint64_t checkpoint_every)
    : service_(service),
      log_engine_(log_engine),
      checkpoint_every_(checkpoint_every) {}

aqv::Status Replayer::Replay(const Statement& stmt, Tracer& tracer,
                             ReplayOutcome* out) {
  aqv::ServiceSnapshotPtr snap;
  {
    ScopedSpan span(tracer, "service.pin_snapshot");
    snap = service_->PinSnapshot();
  }
  return IsSelect(stmt.cls) ? ReplaySelect(stmt, *snap, tracer, out)
                            : ReplayWrite(stmt, *snap, tracer);
}

aqv::Status Replayer::ReplaySelect(const Statement& stmt,
                                   const aqv::ServiceSnapshot& snap,
                                   Tracer& tracer, ReplayOutcome* out) {
  aqv::Result<aqv::Query> query = [&] {
    ScopedSpan span(tracer, "parser.parse");
    return aqv::ParseQuery(stmt.sql, &snap.catalog);
  }();
  AQV_RETURN_NOT_OK(query.status());
  aqv::Result<aqv::OptimizeResult> plan = [&] {
    ScopedSpan span(tracer, "rewrite.optimize");
    aqv::Optimizer optimizer(&snap.db, &snap.views, &snap.catalog,
                             defaults_.rewrite);
    return optimizer.Optimize(*query);
  }();
  AQV_RETURN_NOT_OK(plan.status());
  out->optimized = true;
  out->used_view = plan->used_materialized_view;
  out->rewritings_considered = plan->rewritings_considered;

  // The first columnar() call on a table version pivots it; later calls
  // (any client) share the image, so each version is timed once.
  for (const aqv::TableRef& ref : plan->chosen.from) {
    aqv::TablePtr table = snap.db.GetShared(ref.table);
    if (table == nullptr) continue;
    std::pair<std::string, uint64_t> version{ref.table,
                                             snap.db.VersionOf(ref.table)};
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pivoted_.insert(version).second) continue;
    }
    ScopedSpan span(tracer, "exec.columnar_build");
    table->columnar();
  }

  aqv::PlanProfile profile;
  aqv::Result<aqv::Table> result = [&] {
    ScopedSpan span(tracer, "exec.execute");
    aqv::Evaluator eval(&snap.db, &snap.views, defaults_.eval);
    eval.set_profile(&profile);
    return eval.Execute(plan->chosen);
  }();
  AQV_RETURN_NOT_OK(result.status());
  for (const aqv::OperatorProfile& op : profile.ops) {
    out->rows_in += static_cast<double>(op.rows_in);
  }
  out->rows_out = static_cast<double>(result->num_rows());
  out->result = *std::move(result);
  return aqv::Status::OK();
}

aqv::Status Replayer::ReplayWrite(const Statement& stmt,
                                  const aqv::ServiceSnapshot& snap,
                                  Tracer& tracer) {
  aqv::Delta delta;
  const bool is_insert = stmt.match_sql.empty();
  {
    ScopedSpan span(tracer, "parser.parse");
    if (is_insert) {
      AQV_ASSIGN_OR_RETURN(aqv::InsertStatement insert,
                           aqv::ParseInsert(stmt.sql));
      delta.inserts[insert.table] = std::move(insert.rows);
    } else if (stmt.set_column < 0) {
      AQV_RETURN_NOT_OK(aqv::ParseDelete(stmt.sql, &snap.catalog).status());
    } else {
      AQV_RETURN_NOT_OK(aqv::ParseUpdate(stmt.sql, &snap.catalog).status());
    }
  }
  if (!is_insert) {
    ScopedSpan span(tracer, "exec.dml_match");
    AQV_ASSIGN_OR_RETURN(aqv::Query match,
                         aqv::ParseQuery(stmt.match_sql, &snap.catalog));
    aqv::Evaluator eval(&snap.db, &snap.views, defaults_.eval);
    AQV_ASSIGN_OR_RETURN(aqv::Table matched, eval.Execute(match));
    std::vector<aqv::Row> deleted = matched.rows();
    if (stmt.set_column >= 0) {
      std::vector<aqv::Row> inserted = deleted;
      for (aqv::Row& row : inserted) {
        row[static_cast<size_t>(stmt.set_column)] = stmt.set_value;
      }
      delta.inserts[stmt.table] = std::move(inserted);
    }
    delta.deletes[stmt.table] = std::move(deleted);
  }

  aqv::Database staging = snap.db.Snapshot();
  {
    ScopedSpan span(tracer, "exec.table_copy");
    AQV_RETURN_NOT_OK(aqv::ApplyDeltaToBase(delta, &staging));
  }

  for (const std::string& view : snap.views.ViewNames()) {
    aqv::TablePtr current = snap.db.GetShared(view);
    if (current == nullptr) continue;  // virtual: nothing to maintain
    std::vector<std::string> closure;
    aqv::CollectDependencies({view}, snap.views, &closure);
    if (std::find(closure.begin(), closure.end(), stmt.table) ==
        closure.end()) {
      continue;
    }
    AQV_ASSIGN_OR_RETURN(const aqv::ViewDef* def, snap.views.Get(view));
    AQV_ASSIGN_OR_RETURN(aqv::IncrementalMaintainer maintainer,
                         aqv::IncrementalMaintainer::Create(*def,
                                                            defaults_.eval));
    aqv::Result<aqv::Table> fresh = [&] {
      ScopedSpan span(tracer, "maintain.apply");
      return maintainer.ApplyToCopy(delta, snap.db, *current);
    }();
    if (fresh.ok()) {
      staging.Put(view, *std::move(fresh));
      continue;
    }
    if (fresh.status().code() != aqv::StatusCode::kUnsupported) {
      return fresh.status();
    }
    ScopedSpan span(tracer, "maintain.recompute");
    aqv::Evaluator eval(&staging, &snap.views, defaults_.eval);
    AQV_ASSIGN_OR_RETURN(aqv::Table recomputed, eval.Execute(def->query));
    staging.Put(view, std::move(recomputed));
  }

  if (log_engine_ == nullptr) return aqv::Status::OK();
  {
    std::shared_lock<std::shared_mutex> latch(log_latch_);
    ScopedSpan span(tracer, "storage.log_commit");
    AQV_RETURN_NOT_OK(log_engine_->LogCommit(delta));
  }
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    checkpoint = ++log_commits_ % checkpoint_every_ == 0;
  }
  if (checkpoint) {
    std::unique_lock<std::shared_mutex> latch(log_latch_);
    ScopedSpan span(tracer, "storage.checkpoint");
    AQV_RETURN_NOT_OK(
        log_engine_->Checkpoint(snap.catalog, snap.views, staging, {}));
  }
  return aqv::Status::OK();
}

aqv::Status WriteSpans(const std::string& path,
                       const std::vector<std::vector<Span>>& per_client) {
  std::ofstream out(path);
  if (!out) return aqv::Status::Internal("cannot write " + path);
  char line[256];
  for (size_t client = 0; client < per_client.size(); ++client) {
    const std::vector<Span>& spans = per_client[client];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof(line),
                    "{\"client\":%zu,\"stmt\":%llu,\"id\":%zu,\"parent\":%d,"
                    "\"class\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                    "\"end_ns\":%lld}\n",
                    client, static_cast<unsigned long long>(s.stmt), i,
                    s.parent, ClassName(s.cls), s.name,
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns));
      out << line;
    }
  }
  out.close();
  if (!out) return aqv::Status::Internal("short write to " + path);
  return aqv::Status::OK();
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<std::vector<Span>>& per_client) {
  std::map<std::string, double> self;
  for (const std::vector<Span>& spans : per_client) {
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      std::string name = spans[i].name;
      std::string layer = name.substr(0, name.find('.'));
      double own = static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
                   child_ns[i];
      self[layer] += own / 1e9;
    }
  }
  return self;
}

}  // namespace perfbench
