#include "exec/evaluator.h"

#include <algorithm>
#include <chrono>

#include "base/failpoint.h"
#include "base/strings.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "exec/vectorized.h"
#include "ir/validate.h"

namespace aqv {

namespace {

using ProfClock = std::chrono::steady_clock;

uint64_t MicrosSince(ProfClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(ProfClock::now() -
                                                            start)
          .count());
}

std::string PredicateList(const std::vector<Predicate>& preds) {
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const Predicate& p : preds) parts.push_back(p.ToString());
  return Join(parts, " AND ");
}

}  // namespace

Result<const Table*> Evaluator::InputTable(const std::string& name, int depth) {
  // Stored contents win: this is how a materialized view is served. Take
  // shared ownership of the version read first, so a concurrent writer
  // replacing it (copy-on-write Put) cannot free the rows mid-execution;
  // every read of `name` within this Evaluator sees that same version.
  if (db_ != nullptr) {
    auto it = pinned_.find(name);
    if (it != pinned_.end()) return it->second.get();
    TablePtr pinned = db_->GetShared(name);
    if (pinned != nullptr) {
      const Table* raw = pinned.get();
      pinned_.emplace(name, std::move(pinned));
      return raw;
    }
  }
  if (views_ != nullptr && views_->Has(name)) {
    auto it = view_cache_.find(name);
    if (it == view_cache_.end()) {
      if (depth >= kMaxViewDepth) {
        return Status::InvalidArgument("view nesting exceeds depth limit at '" +
                                       name + "'");
      }
      AQV_ASSIGN_OR_RETURN(const ViewDef* def, views_->Get(name));
      const bool prof = (profile_ != nullptr && depth == 0);
      ProfClock::time_point t0;
      if (prof) t0 = ProfClock::now();
      // Suspend profiling across the nested block: its internal stages
      // belong to the view, which surfaces as one Materialize operator.
      PlanProfile* saved = profile_;
      profile_ = nullptr;
      Result<Table> computed = ExecuteInternal(def->query, depth + 1);
      profile_ = saved;
      AQV_RETURN_NOT_OK(computed.status());
      Table t = *std::move(computed);
      if (prof) {
        profile_->ops.push_back(OperatorProfile{
            "Materialize " + name + " [virtual]", 0, t.num_rows(),
            MicrosSince(t0)});
      }
      ++stats_.views_materialized;
      it = view_cache_.emplace(name, std::move(t)).first;
    }
    return &it->second;
  }
  return Status::NotFound("'" + name + "' is neither a stored table nor a view");
}

Result<Table> Evaluator::Execute(const Query& query) {
  // Rows this call charges against the context become the statement's
  // rows_processed attribution; the delta keeps repeated Execute calls on
  // one context (degraded retries) from double-counting earlier work.
  size_t rows_before =
      ctx_ != nullptr && ctx_->stats() != nullptr ? ctx_->rows_charged() : 0;
  Result<Table> result = [&]() -> Result<Table> {
    if (profile_ == nullptr) return ExecuteInternal(query, 0);
    profile_->ops.clear();
    profile_->total_micros = 0;
    ProfClock::time_point t0 = ProfClock::now();
    Result<Table> r = ExecuteInternal(query, 0);
    profile_->total_micros = MicrosSince(t0);
    return r;
  }();
  if (ctx_ != nullptr && ctx_->stats() != nullptr) {
    ctx_->stats()->rows_processed += ctx_->rows_charged() - rows_before;
  }
  return result;
}

Result<Table> Evaluator::MaterializeView(const std::string& name) {
  AQV_ASSIGN_OR_RETURN(const Table* t, InputTable(name, 0));
  return *t;
}

/// Times the operators of one query block into the attached PlanProfile.
/// Every method is a no-op when profiling is off (no profile attached, or
/// a nested block), so an unprofiled Execute pays no clock reads and builds
/// no labels.
class Evaluator::OpClock {
 public:
  explicit OpClock(PlanProfile* profile) : profile_(profile) {}

  bool on() const { return profile_ != nullptr; }
  void Begin() {
    if (on()) start_ = ProfClock::now();
  }
  uint64_t Elapsed() const { return on() ? MicrosSince(start_) : 0; }

  /// Records the operator begun last; `label` is called only when on.
  template <typename Label>
  void End(Label&& label, size_t rows_in, size_t rows_out) {
    if (on()) Add(label(), rows_in, rows_out, MicrosSince(start_));
  }
  void Add(std::string label, size_t rows_in, size_t rows_out,
           uint64_t micros) {
    profile_->ops.push_back(
        OperatorProfile{std::move(label), rows_in, rows_out, micros});
  }

 private:
  PlanProfile* profile_;
  ProfClock::time_point start_;
};

namespace {

/// Mirrors explain_plan's describe_input: table name, stored cardinality
/// (the cost model's input estimate), pushed-down filter.
std::string InputLabel(const Query& query, const Table& input, size_t t,
                       const std::vector<Predicate>& filters) {
  std::string s =
      query.from[t].table + " [" + std::to_string(input.num_rows()) + " rows]";
  if (!filters.empty()) s += " filter(" + PredicateList(filters) + ")";
  return s;
}

/// "; keys: direct[<span>]" or "; keys: hashed": the key table a batched
/// join or group-by ran with; empty when none ran (a global or row-engine
/// aggregate, a row-engine join).
std::string KeysNote(const KeyForm& keys) {
  return keys.kind == KeyForm::Kind::kNone ? "" : "; keys: " + keys.ToString();
}

std::string AggLabel(const Query& query, bool vectorized,
                     const KeyForm& keys = {}) {
  std::vector<std::string> aggs;
  for (const Operand& term : query.AggregateTerms()) {
    aggs.push_back(term.ToString());
  }
  return "HashAggregate(groups: " +
         (query.group_by.empty() ? std::string("<global>")
                                 : Join(query.group_by, ", ")) +
         "; aggregates: " + Join(aggs, ", ") + KeysNote(keys) + ")" +
         (vectorized ? " [vec]" : "");
}

std::string SelectLabel(const Query& query) {
  std::vector<std::string> items;
  for (const SelectItem& s : query.select) items.push_back(s.ToString());
  return std::string(query.distinct ? "ProjectDistinct(" : "Project(") +
         Join(items, ", ") + ")";
}

/// True if the equi-join edges connect all `n` FROM entries, i.e. the
/// greedy join order never needs a Cartesian step.
bool JoinGraphConnected(
    size_t n, const std::vector<PredicateClassification::JoinEdge>& edges) {
  std::vector<bool> reached(n, false);
  std::vector<int> stack{0};
  reached[0] = true;
  size_t count = 1;
  while (!stack.empty()) {
    int t = stack.back();
    stack.pop_back();
    for (const auto& e : edges) {
      int other = e.left_table == t ? e.right_table
                  : e.right_table == t ? e.left_table
                                       : -1;
      if (other >= 0 && !reached[static_cast<size_t>(other)]) {
        reached[static_cast<size_t>(other)] = true;
        ++count;
        stack.push_back(other);
      }
    }
  }
  return count == n;
}

/// Aggregate specs of `query` with columns resolved through `layout`.
std::vector<AggSpec> AggSpecs(const Query& query,
                              const ColumnIndexMap& layout) {
  std::vector<AggSpec> specs;
  for (const Operand& term : query.AggregateTerms()) {
    int mult = term.multiplier.empty() ? -1 : layout.at(term.multiplier);
    specs.push_back(AggSpec{term.agg, layout.at(term.column), mult});
  }
  return specs;
}

std::vector<int> Ordinals(const std::vector<std::string>& columns,
                          const ColumnIndexMap& layout) {
  std::vector<int> out;
  out.reserve(columns.size());
  for (const std::string& c : columns) out.push_back(layout.at(c));
  return out;
}

std::vector<int> SelectOrdinals(const Query& query,
                                const ColumnIndexMap& layout) {
  std::vector<int> out;
  out.reserve(query.select.size());
  for (const SelectItem& s : query.select) out.push_back(layout.at(s.column));
  return out;
}

/// One equi edge consumed by a join step.
struct JoinKeyNames {
  std::string bound;  // column of an input already joined
  std::string added;  // column of the input being joined
  std::string edge;   // "left = right" as written, for the profile label
};

/// The unused equi edges connecting `t` to the bound inputs, marked used.
std::vector<JoinKeyNames> TakeJoinKeys(const PredicateClassification& cls,
                                       int t, const std::vector<bool>& bound,
                                       std::vector<bool>* edge_used) {
  std::vector<JoinKeyNames> keys;
  for (size_t k = 0; k < cls.equi_joins.size(); ++k) {
    if ((*edge_used)[k]) continue;
    const auto& e = cls.equi_joins[k];
    std::string edge = e.left_column + " = " + e.right_column;
    if (e.left_table == t && bound[static_cast<size_t>(e.right_table)]) {
      keys.push_back({e.right_column, e.left_column, std::move(edge)});
    } else if (e.right_table == t && bound[static_cast<size_t>(e.left_table)]) {
      keys.push_back({e.left_column, e.right_column, std::move(edge)});
    } else {
      continue;
    }
    (*edge_used)[k] = true;
  }
  return keys;
}

std::string JoinLabel(const std::vector<JoinKeyNames>& keys,
                      const KeyForm& form = {}) {
  std::vector<std::string> parts;
  for (const JoinKeyNames& k : keys) parts.push_back(k.edge);
  return "HashJoin(" + Join(parts, ", ") + KeysNote(form) + ")";
}

/// The multi-table conjuncts whose columns are all bound, marked applied.
std::vector<Predicate> TakeReadyPredicates(const Query& query,
                                           const PredicateClassification& cls,
                                           const std::vector<bool>& bound,
                                           std::vector<bool>* applied) {
  std::vector<Predicate> ready;
  for (size_t k = 0; k < cls.multi_table.size(); ++k) {
    if ((*applied)[k]) continue;
    bool all_bound = true;
    for (const std::string& c : cls.multi_table[k].ReferencedColumns()) {
      auto loc = query.FindColumn(c);
      if (loc && !bound[loc->first]) all_bound = false;
    }
    if (all_bound) {
      ready.push_back(cls.multi_table[k]);
      (*applied)[k] = true;
    }
  }
  return ready;
}

/// Equi edges no join consumed (two inputs already joined through a third
/// path), as residual equality filters.
std::vector<Predicate> LeftoverEquiJoins(const PredicateClassification& cls,
                                         const std::vector<bool>& edge_used) {
  std::vector<Predicate> leftover;
  for (size_t k = 0; k < cls.equi_joins.size(); ++k) {
    if (edge_used[k]) continue;
    const auto& e = cls.equi_joins[k];
    leftover.push_back(Predicate{Operand::Column(e.left_column), CmpOp::kEq,
                                 Operand::Column(e.right_column)});
  }
  return leftover;
}

}  // namespace

Result<Table> Evaluator::ExecuteInternal(const Query& query, int depth) {
  AQV_FAILPOINT("exec.operator");
  if (ctx_ != nullptr && !ctx_->CheckNow()) return ctx_->status();
  AQV_RETURN_NOT_OK(ValidateQuery(query));

  // ---- Bind FROM entries to stored tables / materialized views. ----
  size_t n = query.from.size();
  std::vector<const Table*> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    AQV_ASSIGN_OR_RETURN(inputs[i], InputTable(query.from[i].table, depth));
    if (inputs[i]->num_columns() !=
        static_cast<int>(query.from[i].columns.size())) {
      return Status::InvalidArgument(
          "FROM entry '" + query.from[i].table + "' has arity " +
          std::to_string(query.from[i].columns.size()) + " but the table has " +
          std::to_string(inputs[i]->num_columns()) + " columns");
    }
  }

  // Profiling applies to the top-level block only.
  OpClock clock(profile_ != nullptr && depth == 0 ? profile_ : nullptr);

  // Conjunctive queries: the projected (DISTINCT-applied) output rows;
  // aggregate queries: the grouped rows [group values..., aggregates...].
  std::vector<Row> rows;
  bool batched = false;
  if (options_.vectorized && options_.use_hash_join) {
    AQV_ASSIGN_OR_RETURN(batched, ExecuteBatched(query, inputs, clock, &rows));
  }
  if (!batched) AQV_RETURN_NOT_OK(ExecuteRows(query, inputs, clock, &rows));
  // A tripped limit leaves partial output; discard it and surface the
  // violation.
  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();

  Table out(query.OutputColumns());
  if (query.IsConjunctive()) {
    *out.mutable_rows() = std::move(rows);
    return out;
  }
  std::vector<Row>& grouped = rows;
  std::vector<Operand> agg_terms = query.AggregateTerms();

  // Layout of the grouped rows: grouping columns then one synthetic column
  // per aggregate term.
  ColumnIndexMap group_layout;
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    group_layout[query.group_by[i]] = static_cast<int>(i);
  }
  auto agg_position = [&](const Operand& term) -> int {
    for (size_t i = 0; i < agg_terms.size(); ++i) {
      if (agg_terms[i] == term) {
        return static_cast<int>(query.group_by.size() + i);
      }
    }
    return -1;
  };
  auto synthetic_name = [](size_t i) { return "#agg" + std::to_string(i); };
  for (size_t i = 0; i < agg_terms.size(); ++i) {
    group_layout[synthetic_name(i)] =
        static_cast<int>(query.group_by.size() + i);
  }

  // HAVING: rewrite aggregate operands to the synthetic columns, then filter.
  if (!query.having.empty()) {
    std::vector<Predicate> having;
    having.reserve(query.having.size());
    for (Predicate p : query.having) {
      for (Operand* o : {&p.lhs, &p.rhs}) {
        if (o->is_aggregate()) {
          int pos = agg_position(*o);
          *o = Operand::Column(synthetic_name(
              static_cast<size_t>(pos) - query.group_by.size()));
        }
      }
      having.push_back(std::move(p));
    }
    clock.Begin();
    size_t having_in = grouped.size();
    grouped = FilterRows(grouped, having, group_layout, ctx_);
    clock.End(
        [&] {
          std::vector<std::string> conds;
          for (const Predicate& p : query.having) conds.push_back(p.ToString());
          return "Having(" + Join(conds, " AND ") + ")";
        },
        having_in, grouped.size());
  }

  // Final projection. Ratio items divide two SUM positions, so this is a
  // custom loop rather than ProjectRows.
  clock.Begin();
  size_t proj_in = grouped.size();
  std::vector<Row> projected_rows;
  projected_rows.reserve(grouped.size());
  for (const Row& g : grouped) {
    if (ctx_ != nullptr && !ctx_->TickRows()) break;
    Row projected;
    projected.reserve(query.select.size());
    for (const SelectItem& s : query.select) {
      switch (s.kind) {
        case SelectItem::Kind::kColumn:
          projected.push_back(g[group_layout.at(s.column)]);
          break;
        case SelectItem::Kind::kAggregate:
          projected.push_back(g[agg_position(
              Operand::Aggregate(s.agg, s.arg.column, s.arg.multiplier))]);
          break;
        case SelectItem::Kind::kRatio: {
          const Value& num = g[agg_position(Operand::Aggregate(
              AggFn::kSum, s.arg.column, s.arg.multiplier))];
          const Value& den = g[agg_position(Operand::Aggregate(
              AggFn::kSum, s.den.column, s.den.multiplier))];
          if (num.is_null() || den.is_null() || !den.is_numeric() ||
              den.AsDouble() == 0.0) {
            projected.push_back(Value::Null());
          } else {
            projected.push_back(Value::Double(num.AsDouble() / den.AsDouble()));
          }
          break;
        }
      }
    }
    projected_rows.push_back(std::move(projected));
  }
  if (query.distinct) projected_rows = DistinctRows(projected_rows, ctx_);
  clock.End([&] { return SelectLabel(query); }, proj_in, projected_rows.size());
  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();
  *out.mutable_rows() = std::move(projected_rows);
  return out;
}

Result<bool> Evaluator::ExecuteBatched(const Query& query,
                                       const std::vector<const Table*>& inputs,
                                       OpClock& clock, std::vector<Row>* out) {
  const size_t n = query.from.size();
  const bool conjunctive = query.IsConjunctive();
  // A bare projection of one table has nothing to batch: skip the pivot.
  if (n == 1 && conjunctive && query.where.empty()) return false;
  PredicateClassification cls = ClassifyPredicates(query);
  // A disconnected join graph needs a Cartesian step: row engine.
  if (!JoinGraphConnected(n, cls.equi_joins)) return false;

  // The relation's columns: every input's columnar image, in FROM order.
  std::vector<const ColumnarTable*> images(n);
  RelationColumns rel;
  ColumnIndexMap layout;
  for (size_t t = 0; t < n; ++t) {
    images[t] = &inputs[t]->columnar();
    const int offset = static_cast<int>(rel.cols.size());
    rel.Add(*images[t], static_cast<int>(t));
    for (size_t j = 0; j < query.from[t].columns.size(); ++j) {
      layout[query.from[t].columns[j]] = offset + static_cast<int>(j);
    }
  }

  // Compile everything before running anything, so an operator without a
  // batched form (a kMixed column, >4 grouping keys, SUM over strings)
  // sends the whole block to the row engine untouched.
  auto typed = [&](const std::string& c) {
    auto it = layout.find(c);
    return it == layout.end() ||
           rel.cols[static_cast<size_t>(it->second)]->type !=
               ColumnType::kMixed;
  };
  for (const auto& e : cls.equi_joins) {
    if (!typed(e.left_column) || !typed(e.right_column)) return false;
  }
  for (const Predicate& p : cls.multi_table) {
    for (const std::string& c : p.ReferencedColumns()) {
      if (!typed(c)) return false;
    }
  }
  std::vector<CompiledFilter> filters(n);
  for (size_t t = 0; t < n; ++t) {
    ColumnIndexMap scan_layout;
    for (size_t j = 0; j < query.from[t].columns.size(); ++j) {
      scan_layout[query.from[t].columns[j]] = static_cast<int>(j);
    }
    if (!CompiledFilter::Compile(cls.single_table[t], scan_layout, *images[t],
                                 &filters[t])) {
      return false;
    }
  }
  VectorizedAggregation agg;
  if (!conjunctive &&
      !VectorizedAggregation::Compile(rel, Ordinals(query.group_by, layout),
                                      AggSpecs(query, layout), &agg)) {
    return false;
  }

  // ---- Filtered scans: one selection vector per input. An unfiltered
  // single input is read in place, without an identity selection.
  const bool read_all = n == 1 && filters[0].empty();
  std::vector<SelVector> sels(n);
  std::vector<size_t> sizes(n);
  std::vector<uint64_t> scan_micros(n, 0);
  for (size_t t = 0; t < n; ++t) {
    clock.Begin();
    if (!read_all) sels[t] = filters[t].Run(*images[t], ctx_);
    sizes[t] = read_all ? images[t]->num_rows() : sels[t].size();
    scan_micros[t] = clock.Elapsed();
    ++stats_.vectorized_ops;
  }
  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();

  // ---- Join: the row engine's greedy order and build sides, over row ids.
  std::vector<int> order = GreedyJoinOrder(sizes, cls.equi_joins);
  JoinIndex index(n);
  std::vector<bool> bound(n, false);
  std::vector<bool> edge_used(cls.equi_joins.size(), false);
  std::vector<bool> multi_applied(cls.multi_table.size(), false);
  auto filter_index = [&](const std::vector<Predicate>& preds) -> Status {
    if (preds.empty()) return Status::OK();
    CompiledFilter f;
    if (!CompiledFilter::Compile(preds, layout, rel, &f)) {
      return Status::Internal("join filter did not compile: " +
                              PredicateList(preds));
    }
    clock.Begin();
    size_t before = index.size();
    index.Filter(f, ctx_);
    clock.End([&] { return "Filter(" + PredicateList(preds) + ") [vec]"; },
              before, index.size());
    ++stats_.vectorized_ops;
    return Status::OK();
  };

  for (size_t step = 0; step < order.size(); ++step) {
    const int t = order[step];
    const size_t tu = static_cast<size_t>(t);
    if (clock.on()) {
      clock.Add("Scan " +
                    InputLabel(query, *inputs[tu], tu, cls.single_table[tu]) +
                    " [vec]",
                inputs[tu]->num_rows(), sizes[tu], scan_micros[tu]);
    }
    if (step == 0) {
      if (read_all) {
        index.SeedAll(t, sizes[tu]);
      } else {
        index.Seed(t, std::move(sels[tu]));
      }
    } else {
      auto keys = TakeJoinKeys(cls, t, bound, &edge_used);
      std::vector<std::pair<int, int>> key_ordinals;
      for (const JoinKeyNames& k : keys) {
        key_ordinals.emplace_back(layout.at(k.bound), layout.at(k.added));
      }
      clock.Begin();
      size_t before = index.size();
      const KeyForm form = index.HashJoin(rel, key_ordinals, t, sels[tu], ctx_);
      clock.End(
          [&] {
            return JoinLabel(keys, form) + " with " + query.from[tu].table +
                   " [vec]";
          },
          before, index.size());
      ++stats_.vectorized_ops;
      sels[tu] = SelVector();
    }
    bound[tu] = true;
    NoteRows(index.size());
    if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();
    AQV_RETURN_NOT_OK(
        filter_index(TakeReadyPredicates(query, cls, bound, &multi_applied)));
  }
  AQV_RETURN_NOT_OK(filter_index(LeftoverEquiJoins(cls, edge_used)));
  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();

  // ---- Output: gather only the projected columns, or aggregate through
  // the index.
  const RowIds ids = index.ids();
  clock.Begin();
  if (conjunctive) {
    *out = GatherColumns(rel, ids, index.size(), SelectOrdinals(query, layout),
                         ctx_);
    if (query.distinct) *out = DistinctRows(*out, ctx_);
    clock.End([&] { return SelectLabel(query) + " [vec]"; }, index.size(),
              out->size());
  } else {
    KeyForm form;
    *out = agg.Run(ids, index.size(), ctx_, &form);
    clock.End([&] { return AggLabel(query, true, form); }, index.size(),
              out->size());
    NoteRows(out->size());
  }
  ++stats_.vectorized_ops;
  return true;
}

Status Evaluator::ExecuteRows(const Query& query,
                              const std::vector<const Table*>& inputs,
                              OpClock& clock, std::vector<Row>* out) {
  const size_t n = query.from.size();
  std::vector<Row> joined;
  ColumnIndexMap layout;

  if (!options_.use_hash_join) {
    // Reference plan: Cartesian product in FROM order, then filter.
    int offset = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < query.from[i].columns.size(); ++j) {
        layout[query.from[i].columns[j]] = offset++;
      }
      clock.Begin();
      size_t before = joined.size();
      joined = i == 0 ? inputs[0]->rows()
                      : CartesianProduct(joined, inputs[i]->rows(), ctx_);
      clock.End(
          [&] {
            return (i == 0 ? "Scan " : "CartesianProduct with ") +
                   InputLabel(query, *inputs[i], i, {});
          },
          i == 0 ? inputs[0]->num_rows() : before, joined.size());
      NoteRows(joined.size());
    }
    clock.Begin();
    size_t before = joined.size();
    joined = FilterRows(joined, query.where, layout, ctx_);
    if (!query.where.empty()) {
      clock.End([&] { return "Filter(" + PredicateList(query.where) + ")"; },
                before, joined.size());
    }
  } else {
    PredicateClassification cls = ClassifyPredicates(query);

    // Per-input filtered scans.
    std::vector<std::vector<Row>> scans(n);
    std::vector<uint64_t> scan_micros(n, 0);
    for (size_t i = 0; i < n; ++i) {
      ColumnIndexMap scan_layout;
      for (size_t j = 0; j < query.from[i].columns.size(); ++j) {
        scan_layout[query.from[i].columns[j]] = static_cast<int>(j);
      }
      clock.Begin();
      scans[i] = FilterRows(inputs[i]->rows(), cls.single_table[i],
                            scan_layout, ctx_);
      scan_micros[i] = clock.Elapsed();
    }

    std::vector<size_t> sizes(n);
    for (size_t i = 0; i < n; ++i) sizes[i] = scans[i].size();
    std::vector<int> order = GreedyJoinOrder(sizes, cls.equi_joins);

    std::vector<bool> bound(n, false);
    std::vector<bool> edge_used(cls.equi_joins.size(), false);
    std::vector<bool> multi_applied(cls.multi_table.size(), false);
    auto filter_joined = [&](const std::vector<Predicate>& preds) {
      if (preds.empty()) return;
      clock.Begin();
      size_t before = joined.size();
      joined = FilterRows(joined, preds, layout, ctx_);
      clock.End([&] { return "Filter(" + PredicateList(preds) + ")"; }, before,
                joined.size());
    };

    for (size_t step = 0; step < order.size(); ++step) {
      const int t = order[step];
      const size_t tu = static_cast<size_t>(t);
      if (clock.on()) {
        clock.Add(
            "Scan " + InputLabel(query, *inputs[tu], tu, cls.single_table[tu]),
            inputs[tu]->num_rows(), scans[tu].size(), scan_micros[tu]);
      }
      const int offset = static_cast<int>(layout.size());
      if (step == 0) {
        joined = std::move(scans[tu]);
      } else {
        auto keys = TakeJoinKeys(cls, t, bound, &edge_used);
        std::vector<std::pair<int, int>> key_ordinals;  // (joined, scan)
        for (const JoinKeyNames& k : keys) {
          key_ordinals.emplace_back(layout.at(k.bound),
                                    query.FindColumn(k.added)->second);
        }
        clock.Begin();
        size_t before = joined.size();
        if (keys.empty()) {
          joined = CartesianProduct(joined, scans[tu], ctx_);
          clock.End(
              [&] { return "CartesianProduct with " + query.from[tu].table; },
              before, joined.size());
        } else {
          joined = HashJoin(joined, scans[tu], key_ordinals, ctx_);
          clock.End(
              [&] { return JoinLabel(keys) + " with " + query.from[tu].table; },
              before, joined.size());
        }
      }
      for (size_t j = 0; j < query.from[tu].columns.size(); ++j) {
        layout[query.from[tu].columns[j]] = offset + static_cast<int>(j);
      }
      bound[tu] = true;
      NoteRows(joined.size());
      filter_joined(TakeReadyPredicates(query, cls, bound, &multi_applied));
    }
    filter_joined(LeftoverEquiJoins(cls, edge_used));
  }

  if (ctx_ != nullptr && !ctx_->ok()) return ctx_->status();

  clock.Begin();
  if (query.IsConjunctive()) {
    *out = ProjectRows(joined, SelectOrdinals(query, layout), ctx_);
    if (query.distinct) *out = DistinctRows(*out, ctx_);
    clock.End([&] { return SelectLabel(query); }, joined.size(), out->size());
  } else {
    *out = GroupAggregate(joined, Ordinals(query.group_by, layout),
                          AggSpecs(query, layout), ctx_);
    clock.End([&] { return AggLabel(query, false); }, joined.size(),
              out->size());
    NoteRows(out->size());
  }
  return Status::OK();
}

}  // namespace aqv
