#include "exec/vectorized.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string_view>
#include <type_traits>
#include <unordered_map>

namespace aqv {

void RelationColumns::Add(const ColumnarTable& table, int input) {
  for (int j = 0; j < table.num_columns(); ++j) {
    cols.push_back(&table.col(j));
    inputs.push_back(input);
  }
}

RelationColumns RelationColumns::Of(const ColumnarTable& table) {
  RelationColumns rel;
  rel.Add(table, 0);
  return rel;
}

namespace {

/// Row of an input at a relation position (see RowIds).
inline size_t RowAt(const uint32_t* ids, size_t pos) {
  return ids != nullptr ? ids[pos] : pos;
}

/// Maps a three-way comparison result through `op` (EvalCmp's final switch).
inline bool CmpPass(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// EvalCmp's numeric verdict without a branch: its three-way result
/// (a < b ? -1 : a > b ? 1 : 0) mapped through `kOp`, so unordered (NaN)
/// operands compare "equal" exactly as in the row engine.
template <CmpOp kOp, typename V>
inline bool NumCmp(V a, V b) {
  const bool lt = a < b;
  const bool gt = a > b;
  if constexpr (kOp == CmpOp::kEq) return !(lt | gt);
  if constexpr (kOp == CmpOp::kNe) return lt | gt;
  if constexpr (kOp == CmpOp::kLt) return lt;
  if constexpr (kOp == CmpOp::kLe) return !gt;
  if constexpr (kOp == CmpOp::kGt) return gt;
  return !lt;
}

/// Calls `f` with `op` as a compile-time constant.
template <typename F>
decltype(auto) WithOp(CmpOp op, F&& f) {
  switch (op) {
    case CmpOp::kEq:
      return f(std::integral_constant<CmpOp, CmpOp::kEq>{});
    case CmpOp::kNe:
      return f(std::integral_constant<CmpOp, CmpOp::kNe>{});
    case CmpOp::kLt:
      return f(std::integral_constant<CmpOp, CmpOp::kLt>{});
    case CmpOp::kLe:
      return f(std::integral_constant<CmpOp, CmpOp::kLe>{});
    case CmpOp::kGt:
      return f(std::integral_constant<CmpOp, CmpOp::kGt>{});
    case CmpOp::kGe:
      break;
  }
  return f(std::integral_constant<CmpOp, CmpOp::kGe>{});
}

/// Numeric column value as double — the representation EvalCmp compares in
/// (AsDouble on both sides), so INT64/DOUBLE cross comparisons match the
/// row engine bit-for-bit.
inline double NumAt(const Column& c, size_t r) {
  return c.type == ColumnType::kInt64 ? static_cast<double>(c.i64[r])
                                      : c.f64[r];
}

inline bool ValidAt(const uint64_t* null_words, size_t r) {
  return ((null_words[r >> 6] >> (r & 63)) & 1) == 0;
}

inline int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

using Pred = CompiledFilter::Pred;

/// One conjunct at row `lr` of its lhs column's input and row `rr` of its
/// rhs column's input (the same row for a single-table filter).
bool PredPass(const Pred& p, size_t lr, size_t rr) {
  switch (p.kind) {
    case Pred::Kind::kAlwaysTrue:
      return true;
    case Pred::Kind::kAlwaysFalse:
      return false;
    case Pred::Kind::kNumConst: {
      if (p.lhs->IsNull(lr)) return false;
      double d = NumAt(*p.lhs, lr);
      return CmpPass(p.op, d < p.cval ? -1 : (d > p.cval ? 1 : 0));
    }
    case Pred::Kind::kStrConst:
      if (p.lhs->IsNull(lr)) return false;
      return p.dict_pass[static_cast<size_t>(p.lhs->codes[lr])] != 0;
    case Pred::Kind::kNumNum: {
      if (p.lhs->IsNull(lr) || p.rhs->IsNull(rr)) return false;
      double a = NumAt(*p.lhs, lr), b = NumAt(*p.rhs, rr);
      return CmpPass(p.op, a < b ? -1 : (a > b ? 1 : 0));
    }
    case Pred::Kind::kStrStr: {
      if (p.lhs->IsNull(lr) || p.rhs->IsNull(rr)) return false;
      int cm = p.lhs->dict[static_cast<size_t>(p.lhs->codes[lr])].compare(
          p.rhs->dict[static_cast<size_t>(p.rhs->codes[rr])]);
      return CmpPass(p.op, Sign(cm));
    }
    case Pred::Kind::kNotNullNe:
      if (p.lhs->IsNull(lr)) return false;
      if (p.rhs != nullptr && p.rhs->IsNull(rr)) return false;
      return true;
  }
  return false;
}

// The scan kernels write every candidate row id and advance the output
// cursor by the verdict (`out[k] = r; k += pass`), so a 33%-selective
// predicate costs no branch mispredictions.

// `V` is the domain compared in: double (EvalCmp's), or int64_t for an
// INT64 column whose constant Compile rewrote exactly (Pred::int_domain).

template <CmpOp kOp, typename T, typename V>
size_t SelectNumConst(const T* v, const Column& c, V cv, size_t base,
                      size_t end, uint32_t* out) {
  size_t k = 0;
  if (!c.has_nulls) {
    for (size_t r = base; r < end; ++r) {
      out[k] = static_cast<uint32_t>(r);
      k += NumCmp<kOp>(static_cast<V>(v[r]), cv);
    }
  } else {
    const uint64_t* nulls = c.null_words.data();
    for (size_t r = base; r < end; ++r) {
      out[k] = static_cast<uint32_t>(r);
      k += ValidAt(nulls, r) & NumCmp<kOp>(static_cast<V>(v[r]), cv);
    }
  }
  return k;
}

template <CmpOp kOp, typename T, typename V>
size_t RefineNumConst(const T* v, const Column& c, V cv, uint32_t* sel,
                      size_t n) {
  size_t w = 0;
  if (!c.has_nulls) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = sel[i];
      sel[w] = r;
      w += NumCmp<kOp>(static_cast<V>(v[r]), cv);
    }
  } else {
    const uint64_t* nulls = c.null_words.data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = sel[i];
      sel[w] = r;
      w += ValidAt(nulls, r) & NumCmp<kOp>(static_cast<V>(v[r]), cv);
    }
  }
  return w;
}

/// First conjunct over rows [base, end): writes passing row ids to `out`,
/// returns their count.
size_t SelectFirst(const Pred& p, size_t base, size_t end, uint32_t* out) {
  if (p.kind == Pred::Kind::kNumConst) {
    const Column& c = *p.lhs;
    return WithOp(p.op, [&](auto op) {
      if (p.int_domain) {
        return SelectNumConst<op()>(c.i64.data(), c, p.ival, base, end, out);
      }
      return c.type == ColumnType::kInt64
                 ? SelectNumConst<op()>(c.i64.data(), c, p.cval, base, end, out)
                 : SelectNumConst<op()>(c.f64.data(), c, p.cval, base, end,
                                        out);
    });
  }
  size_t k = 0;
  for (size_t r = base; r < end; ++r) {
    out[k] = static_cast<uint32_t>(r);
    k += PredPass(p, r, r);
  }
  return k;
}

/// Later conjuncts: compacts `sel[0, n)` in place, returns the new count.
size_t Refine(const Pred& p, uint32_t* sel, size_t n) {
  if (p.kind == Pred::Kind::kNumConst) {
    const Column& c = *p.lhs;
    return WithOp(p.op, [&](auto op) {
      if (p.int_domain) {
        return RefineNumConst<op()>(c.i64.data(), c, p.ival, sel, n);
      }
      return c.type == ColumnType::kInt64
                 ? RefineNumConst<op()>(c.i64.data(), c, p.cval, sel, n)
                 : RefineNumConst<op()>(c.f64.data(), c, p.cval, sel, n);
    });
  }
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += PredPass(p, r, r);
  }
  return w;
}

/// Rewrites `column op cval` over an INT64 column into the same verdict
/// over integers, when that is exact: for |cval| < 2^53, every INT64 at
/// most 2^53 in magnitude converts to double exactly, and every larger one
/// lies beyond cval on the same side after conversion. A fractional cval
/// moves to the integer on the side the comparison keeps (v < 2.5 is
/// v < 3, v > 2.5 is v > 2), and `=` / `<>` against it is decided outright.
void ToIntDomain(Pred* p) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double c = p->cval;
  if (!(std::fabs(c) < kExact)) return;  // also rejects NaN
  const double lo = std::floor(c);
  if (lo == c) {
    p->ival = static_cast<int64_t>(c);
  } else if (p->op == CmpOp::kEq) {
    p->kind = Pred::Kind::kAlwaysFalse;
    return;
  } else if (p->op == CmpOp::kNe) {
    p->kind = Pred::Kind::kNotNullNe;
    return;
  } else {
    const bool round_up = p->op == CmpOp::kLt || p->op == CmpOp::kGe;
    p->ival = static_cast<int64_t>(lo) + (round_up ? 1 : 0);
  }
  p->int_domain = true;
}

}  // namespace

bool CompiledFilter::Compile(const std::vector<Predicate>& preds,
                             const ColumnIndexMap& layout,
                             const RelationColumns& rel, CompiledFilter* out) {
  out->preds_.clear();
  out->preds_.reserve(preds.size());
  for (const Predicate& p : preds) {
    if (!p.IsScalar()) return false;
    // Resolve each operand the way EvalScalarPredicate does: constants pass
    // through, columns go through the layout, anything unresolvable becomes
    // a NULL constant (which makes the predicate constant-false).
    struct Res {
      bool is_const;
      Value cv;
      const Column* col;
      int input;
    };
    auto resolve = [&](const Operand& o) -> Res {
      if (o.is_constant()) return {true, o.constant, nullptr, 0};
      auto it = layout.find(o.column);
      if (it == layout.end() || it->second < 0 ||
          it->second >= static_cast<int>(rel.cols.size())) {
        return {true, Value::Null(), nullptr, 0};
      }
      size_t j = static_cast<size_t>(it->second);
      return {false, Value(), rel.cols[j], rel.inputs[j]};
    };
    Res l = resolve(p.lhs), r = resolve(p.rhs);
    if (!l.is_const && l.col->type == ColumnType::kMixed) return false;
    if (!r.is_const && r.col->type == ColumnType::kMixed) return false;

    Pred c;
    c.op = p.op;
    if (l.is_const && r.is_const) {
      c.kind = EvalCmp(l.cv, p.op, r.cv) ? Pred::Kind::kAlwaysTrue
                                         : Pred::Kind::kAlwaysFalse;
    } else if (l.is_const || r.is_const) {
      // Normalize to `column op constant` (flip when the constant is lhs).
      const Res& col = l.is_const ? r : l;
      const Value& cv = l.is_const ? l.cv : r.cv;
      CmpOp op = l.is_const ? FlipCmpOp(p.op) : p.op;
      c.lhs = col.col;
      c.lhs_input = col.input;
      c.op = op;
      const Column& cc = *col.col;
      if (cv.is_null()) {
        c.kind = Pred::Kind::kAlwaysFalse;
      } else if (cc.type == ColumnType::kString) {
        if (cv.type() == ValueType::kString) {
          // Hoist the comparison out of the scan: one verdict per dict code.
          c.kind = Pred::Kind::kStrConst;
          c.dict_pass.resize(cc.dict.size());
          for (size_t i = 0; i < cc.dict.size(); ++i) {
            c.dict_pass[i] =
                CmpPass(op, Sign(cc.dict[i].compare(cv.str()))) ? 1 : 0;
          }
        } else {
          c.kind = op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
        }
      } else {  // numeric column
        if (cv.is_numeric()) {
          c.kind = Pred::Kind::kNumConst;
          c.cval = cv.AsDouble();
          if (cc.type == ColumnType::kInt64) ToIntDomain(&c);
        } else {
          c.kind = op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
        }
      }
    } else {
      c.lhs = l.col;
      c.lhs_input = l.input;
      c.rhs = r.col;
      c.rhs_input = r.input;
      bool lnum = l.col->type != ColumnType::kString;
      bool rnum = r.col->type != ColumnType::kString;
      if (lnum && rnum) {
        c.kind = Pred::Kind::kNumNum;
      } else if (!lnum && !rnum) {
        c.kind = Pred::Kind::kStrStr;
      } else {
        c.kind = p.op == CmpOp::kNe ? Pred::Kind::kNotNullNe
                                    : Pred::Kind::kAlwaysFalse;
      }
    }
    out->preds_.push_back(std::move(c));
  }
  return true;
}

SelVector CompiledFilter::Run(const ColumnarTable& table,
                              ExecContext* ctx) const {
  const size_t n = table.num_rows();
  SelVector sel;
  if (preds_.empty()) {
    // Identity selection; FilterRows charges nothing for an empty
    // conjunction, so neither do we.
    sel.resize(n);
    for (size_t r = 0; r < n; ++r) sel[r] = static_cast<uint32_t>(r);
    return sel;
  }
  sel.reserve(n);
  std::array<uint32_t, kBatchRows> batch;
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t end = std::min(n, base + kBatchRows);
    // Charge the whole batch up front; kBatchRows == kCheckStride, so this
    // also re-checks the deadline/cancel flag once per batch.
    if (ctx != nullptr && !ctx->TickRows(end - base)) break;
    size_t k = SelectFirst(preds_[0], base, end, batch.data());
    for (size_t p = 1; p < preds_.size() && k > 0; ++p) {
      k = Refine(preds_[p], batch.data(), k);
    }
    sel.insert(sel.end(), batch.begin(), batch.begin() + k);
  }
  return sel;
}

SelVector CompiledFilter::Select(const RowIds& ids, size_t n,
                                 ExecContext* ctx) const {
  SelVector out;
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t end = std::min(n, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) break;
    for (size_t pos = base; pos < end; ++pos) {
      bool keep = true;
      for (const Pred& p : preds_) {
        if (!PredPass(p, RowAt(ids[static_cast<size_t>(p.lhs_input)], pos),
                      RowAt(ids[static_cast<size_t>(p.rhs_input)], pos))) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(static_cast<uint32_t>(pos));
    }
  }
  return out;
}

std::vector<Row> GatherColumns(const RelationColumns& rel, const RowIds& ids,
                               size_t n, const std::vector<int>& ordinals,
                               ExecContext* ctx) {
  std::vector<Row> out;
  out.reserve(n);
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t end = std::min(n, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) break;
    for (size_t pos = base; pos < end; ++pos) {
      Row row;
      row.reserve(ordinals.size());
      for (int o : ordinals) {
        size_t j = static_cast<size_t>(o);
        row.push_back(rel.cols[j]->ValueAt(
            RowAt(ids[static_cast<size_t>(rel.inputs[j])], pos)));
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Join index.

void JoinIndex::Seed(int input, SelVector sel) {
  size_ = sel.size();
  rows_[static_cast<size_t>(input)] = std::move(sel);
  bound_ = {input};
}

void JoinIndex::SeedAll(int input, size_t num_rows) {
  size_ = num_rows;
  identity_[static_cast<size_t>(input)] = true;
  bound_ = {input};
}

RowIds JoinIndex::ids() const {
  RowIds out(rows_.size(), nullptr);
  for (int i : bound_) {
    size_t u = static_cast<size_t>(i);
    out[u] = identity_[u] ? nullptr : rows_[u].data();
  }
  return out;
}

void JoinIndex::Keep(const SelVector& positions) {
  RowIds from = ids();
  for (int i : bound_) {
    size_t u = static_cast<size_t>(i);
    SelVector kept(positions.size());
    for (size_t m = 0; m < positions.size(); ++m) {
      kept[m] = static_cast<uint32_t>(RowAt(from[u], positions[m]));
    }
    rows_[u] = std::move(kept);
    identity_[u] = false;
  }
  size_ = positions.size();
}

void JoinIndex::Filter(const CompiledFilter& filter, ExecContext* ctx) {
  SelVector keep = filter.Select(ids(), size_, ctx);
  if (ctx != nullptr && !ctx->ok()) return;
  Keep(keep);
}

namespace {

constexpr uint32_t kNoEntry = UINT32_MAX;

inline uint64_t HashWords(const uint64_t* w, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= w[i];
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

/// One side of one join key: the column and the ids through which a
/// position of that side reads it. `xlat` (probe side of a string key)
/// maps the column's dictionary codes into the build column's codes, -1
/// for strings the build column never holds.
struct KeySide {
  const Column* col = nullptr;
  const uint32_t* ids = nullptr;
  bool translate = false;
  std::vector<int32_t> xlat;
};

/// Canonical (tag, bits) words of one key value, CanonicalKey's rule: tags
/// 1 integer space (INT64 and integral DOUBLE), 2 other DOUBLE (IEEE
/// bits), 3 string (build-side dictionary code). False for NULL — which
/// never joins — and for a probe string the build side cannot hold.
inline bool EncodeJoinKey(const KeySide& s, size_t pos, uint64_t* words) {
  const size_t r = RowAt(s.ids, pos);
  const Column& c = *s.col;
  if (c.IsNull(r)) return false;
  switch (c.type) {
    case ColumnType::kInt64:
      words[0] = 1;
      words[1] = static_cast<uint64_t>(c.i64[r]);
      return true;
    case ColumnType::kDouble: {
      double d = c.f64[r];
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        words[0] = 1;
        words[1] = static_cast<uint64_t>(i);
      } else {
        words[0] = 2;
        words[1] = std::bit_cast<uint64_t>(d);
      }
      return true;
    }
    case ColumnType::kString: {
      int32_t code = c.codes[r];
      if (s.translate) code = s.xlat[static_cast<size_t>(code)];
      if (code < 0) return false;
      words[0] = 3;
      words[1] = static_cast<uint64_t>(code);
      return true;
    }
    case ColumnType::kMixed:
      break;  // rejected before the join is planned
  }
  return false;
}

}  // namespace

void JoinIndex::HashJoin(const RelationColumns& rel,
                         const std::vector<std::pair<int, int>>& keys,
                         int input, const SelVector& sel, ExecContext* ctx) {
  const RowIds rel_ids = ids();
  // Build on the smaller side, like HashJoin (left = relation, right = the
  // new input's selection).
  const bool build_rel = size_ <= sel.size();
  const size_t nb = build_rel ? size_ : sel.size();
  const size_t np = build_rel ? sel.size() : size_;

  const size_t nk = keys.size();
  const size_t width = 2 * nk;
  std::vector<KeySide> build(nk), probe(nk);
  for (size_t c = 0; c < nk; ++c) {
    size_t bo = static_cast<size_t>(keys[c].first);
    size_t no = static_cast<size_t>(keys[c].second);
    KeySide rel_side;
    rel_side.col = rel.cols[bo];
    rel_side.ids = rel_ids[static_cast<size_t>(rel.inputs[bo])];
    KeySide new_side;
    new_side.col = rel.cols[no];
    new_side.ids = sel.data();
    build[c] = build_rel ? rel_side : new_side;
    probe[c] = build_rel ? new_side : rel_side;
    if (probe[c].col->type == ColumnType::kString) {
      // String keys compare by content: translate the probe dictionary into
      // build codes once, so the hot loop compares integers.
      const Column& bc = *build[c].col;
      std::unordered_map<std::string_view, int32_t> build_codes;
      if (bc.type == ColumnType::kString) {
        build_codes.reserve(bc.dict.size());
        for (size_t i = 0; i < bc.dict.size(); ++i) {
          build_codes.emplace(bc.dict[i], static_cast<int32_t>(i));
        }
      }
      const std::vector<std::string>& pd = probe[c].col->dict;
      probe[c].translate = true;
      probe[c].xlat.assign(pd.size(), -1);
      for (size_t i = 0; i < pd.size(); ++i) {
        auto it = build_codes.find(pd[i]);
        if (it != build_codes.end()) probe[c].xlat[i] = it->second;
      }
    }
  }

  // Build: distinct keys in an open-addressing table, then every key's
  // build positions laid out contiguously in insertion order.
  struct KeyRec {
    uint64_t hash;
    uint32_t first;  // into `positions`
    uint32_t count;
  };
  size_t capacity = 16;
  while (capacity < 2 * nb) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, kNoEntry);
  std::vector<KeyRec> key_recs;
  std::vector<uint64_t> key_words;
  std::vector<uint32_t> entry_key, entry_pos;
  entry_key.reserve(nb);
  entry_pos.reserve(nb);
  std::vector<uint64_t> kw(width);

  auto find_slot = [&](uint64_t h) {
    size_t s = h & mask;
    while (slots[s] != kNoEntry) {
      uint32_t id = slots[s];
      if (key_recs[id].hash == h &&
          std::equal(kw.begin(), kw.end(), key_words.begin() + id * width)) {
        break;
      }
      s = (s + 1) & mask;
    }
    return s;
  };

  for (size_t base = 0; base < nb; base += kBatchRows) {
    const size_t end = std::min(nb, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) return;
    for (size_t pos = base; pos < end; ++pos) {
      bool ok = true;
      for (size_t c = 0; c < nk && ok; ++c) {
        ok = EncodeJoinKey(build[c], pos, &kw[2 * c]);
      }
      if (!ok) continue;
      const uint64_t h = HashWords(kw.data(), width);
      const size_t s = find_slot(h);
      if (slots[s] == kNoEntry) {
        slots[s] = static_cast<uint32_t>(key_recs.size());
        key_recs.push_back(KeyRec{h, 0, 0});
        key_words.insert(key_words.end(), kw.begin(), kw.end());
      }
      ++key_recs[slots[s]].count;
      entry_key.push_back(slots[s]);
      entry_pos.push_back(static_cast<uint32_t>(pos));
    }
  }
  uint32_t offset = 0;
  for (KeyRec& k : key_recs) {
    k.first = offset;
    offset += k.count;
  }
  std::vector<uint32_t> positions(entry_pos.size());
  {
    std::vector<uint32_t> cursor(key_recs.size());
    for (size_t id = 0; id < key_recs.size(); ++id) {
      cursor[id] = key_recs[id].first;
    }
    for (size_t e = 0; e < entry_pos.size(); ++e) {
      positions[cursor[entry_key[e]]++] = entry_pos[e];
    }
  }

  // Probe in order; each hit emits its build positions in insertion order —
  // the row HashJoin's output order.
  SelVector out_rel, out_new;
  out_rel.reserve(np);
  out_new.reserve(np);
  for (size_t base = 0; base < np; base += kBatchRows) {
    const size_t end = std::min(np, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) return;
    for (size_t pos = base; pos < end; ++pos) {
      bool ok = true;
      for (size_t c = 0; c < nk && ok; ++c) {
        ok = EncodeJoinKey(probe[c], pos, &kw[2 * c]);
      }
      if (!ok) continue;
      const size_t s = find_slot(HashWords(kw.data(), width));
      if (slots[s] == kNoEntry) continue;
      const KeyRec& k = key_recs[slots[s]];
      if (ctx != nullptr && !ctx->TickRows(k.count)) return;
      const uint32_t* hit = positions.data() + k.first;
      for (uint32_t i = 0; i < k.count; ++i) {
        out_rel.push_back(build_rel ? hit[i] : static_cast<uint32_t>(pos));
        out_new.push_back(build_rel ? static_cast<uint32_t>(pos) : hit[i]);
      }
    }
  }

  for (int i : bound_) {
    size_t u = static_cast<size_t>(i);
    SelVector joined(out_rel.size());
    for (size_t m = 0; m < out_rel.size(); ++m) {
      joined[m] = static_cast<uint32_t>(RowAt(rel_ids[u], out_rel[m]));
    }
    rows_[u] = std::move(joined);
    identity_[u] = false;
  }
  SelVector joined(out_new.size());
  for (size_t m = 0; m < out_new.size(); ++m) joined[m] = sel[out_new[m]];
  rows_[static_cast<size_t>(input)] = std::move(joined);
  bound_.push_back(input);
  size_ = out_rel.size();
}

// ---------------------------------------------------------------------------
// Aggregation.

namespace {

/// Packed canonical group key: (tag, bits) per grouping column, zero-padded
/// to the maximum width so the map type is fixed. Tags: 0 NULL, 1 integer
/// space (INT64 and integral DOUBLE collapse here — CanonicalKey's rule),
/// 2 non-integral DOUBLE (IEEE bits), 3 string (dictionary code).
using GroupKey = std::array<uint64_t, 2 * VectorizedAggregation::kMaxGroupCols>;

struct GroupKeyHash {
  size_t words;
  size_t operator()(const GroupKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < words; ++i) {
      h ^= k[i];
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Mirrors Aggregator's accumulator state; which fields are live is decided
/// by the compiled (fn, stream) pair, so the struct carries no tags.
struct AggState {
  int64_t sum_i = 0;
  double sum_d = 0.0;
  int64_t cnt = 0;
  int64_t ext_i = 0;
  double ext_d = 0.0;
  int32_t ext_code = -1;
  bool any = false;
};

inline void EncodeKeyCol(const Column& c, size_t r, uint64_t* tag,
                         uint64_t* bits) {
  if (c.IsNull(r)) {
    *tag = 0;
    *bits = 0;
    return;
  }
  switch (c.type) {
    case ColumnType::kInt64:
      *tag = 1;
      *bits = static_cast<uint64_t>(c.i64[r]);
      break;
    case ColumnType::kDouble: {
      double d = c.f64[r];
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        *tag = 1;
        *bits = static_cast<uint64_t>(i);
      } else {
        *tag = 2;
        *bits = std::bit_cast<uint64_t>(d);
      }
      break;
    }
    case ColumnType::kString:
      *tag = 3;
      *bits = static_cast<uint64_t>(static_cast<uint32_t>(c.codes[r]));
      break;
    case ColumnType::kMixed:
      break;  // rejected at Compile
  }
}

}  // namespace

bool VectorizedAggregation::Compile(const RelationColumns& rel,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs,
                                    VectorizedAggregation* out) {
  if (group_cols.size() > kMaxGroupCols) return false;
  auto col = [&rel](int o) { return rel.cols[static_cast<size_t>(o)]; };
  auto input = [&rel](int o) { return rel.inputs[static_cast<size_t>(o)]; };
  out->group_cols_.clear();
  out->group_inputs_.clear();
  for (int g : group_cols) {
    if (col(g)->type == ColumnType::kMixed) return false;
    out->group_cols_.push_back(col(g));
    out->group_inputs_.push_back(input(g));
  }
  out->aggs_.clear();
  out->aggs_.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    Agg c;
    c.fn = a.fn;
    c.col = col(a.column);
    c.input = input(a.column);
    if (c.col->type == ColumnType::kMixed) return false;
    ColumnType ct = c.col->type;
    if (a.multiplier >= 0) {
      c.mult = col(a.multiplier);
      c.mult_input = input(a.multiplier);
      ColumnType mt = c.mult->type;
      if (mt == ColumnType::kMixed) return false;
      if (ct == ColumnType::kString || mt == ColumnType::kString) {
        // NumericProduct of a non-numeric operand is NULL for every row.
        c.stream = Stream::kNullStream;
      } else if (ct == ColumnType::kInt64 && mt == ColumnType::kInt64) {
        c.stream = Stream::kInt;
      } else {
        c.stream = Stream::kDbl;
      }
    } else {
      c.stream = ct == ColumnType::kInt64    ? Stream::kInt
                 : ct == ColumnType::kDouble ? Stream::kDbl
                                             : Stream::kStr;
    }
    // SUM/AVG over a string column would hit AsDouble on a string in the
    // row engine; keep that path byte-identical by not vectorizing it.
    if ((a.fn == AggFn::kSum || a.fn == AggFn::kAvg) &&
        c.stream == Stream::kStr) {
      return false;
    }
    out->aggs_.push_back(c);
  }
  return true;
}

std::vector<Row> VectorizedAggregation::Run(const RowIds& ids, size_t total,
                                            ExecContext* ctx) const {
  const size_t nspecs = aggs_.size();
  const size_t ng = group_cols_.size();
  auto ids_of = [&ids](int input) { return ids[static_cast<size_t>(input)]; };

  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> gmap(
      16, GroupKeyHash{2 * ng});
  std::vector<uint32_t> first_pos;  // each group's first relation position
  std::vector<AggState> states;
  if (ng == 0) {
    // Global aggregate: exactly one group, present even on empty input.
    first_pos.push_back(0);
    states.resize(nspecs);
  }
  std::vector<const uint32_t*> group_ids(ng);
  for (size_t g = 0; g < ng; ++g) group_ids[g] = ids_of(group_inputs_[g]);

  std::vector<uint32_t> gids(kBatchRows);
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, total - base);
    if (ctx != nullptr && !ctx->TickRows(bn)) break;

    // Stage 1: group-id per position.
    if (ng == 0) {
      std::fill_n(gids.begin(), bn, 0u);
    } else {
      GroupKey key{};
      for (size_t k = 0; k < bn; ++k) {
        const size_t pos = base + k;
        for (size_t g = 0; g < ng; ++g) {
          EncodeKeyCol(*group_cols_[g], RowAt(group_ids[g], pos), &key[2 * g],
                       &key[2 * g + 1]);
        }
        auto [it, inserted] =
            gmap.try_emplace(key, static_cast<uint32_t>(first_pos.size()));
        if (inserted) {
          first_pos.push_back(static_cast<uint32_t>(pos));
          states.resize(states.size() + nspecs);
        }
        gids[k] = it->second;
      }
    }

    // Stage 2: per-aggregate typed accumulation over the batch.
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      if (a.stream == Stream::kNullStream) continue;
      auto state = [&](size_t k) -> AggState& {
        return states[gids[k] * nspecs + s];
      };
      const Column& c = *a.col;
      const Column* m = a.mult;
      const uint32_t* cids = ids_of(a.input);
      const uint32_t* mids = m != nullptr ? ids_of(a.mult_input) : nullptr;
      // Row of the argument (r) and of the multiplier (mr) at batch slot k;
      // a null argument or multiplier skips the row like Aggregator::Add.
      auto rows_at = [&](size_t k, size_t* r, size_t* mr) {
        *r = RowAt(cids, base + k);
        if (c.IsNull(*r)) return false;
        if (m == nullptr) return true;
        *mr = RowAt(mids, base + k);
        return !m->IsNull(*mr);
      };
      size_t r = 0, mr = 0;

      switch (a.fn) {
        case AggFn::kSum:
        case AggFn::kAvg:
          if (a.stream == Stream::kInt) {
            for (size_t k = 0; k < bn; ++k) {
              if (!rows_at(k, &r, &mr)) continue;
              int64_t v = m != nullptr ? c.i64[r] * m->i64[mr] : c.i64[r];
              AggState& st = state(k);
              st.sum_i += v;
              st.sum_d += static_cast<double>(v);
              ++st.cnt;
              st.any = true;
            }
          } else {
            for (size_t k = 0; k < bn; ++k) {
              if (!rows_at(k, &r, &mr)) continue;
              double v =
                  m != nullptr ? NumAt(c, r) * NumAt(*m, mr) : NumAt(c, r);
              AggState& st = state(k);
              st.sum_d += v;
              ++st.cnt;
              st.any = true;
            }
          }
          break;
        case AggFn::kCount:
          for (size_t k = 0; k < bn; ++k) {
            if (!rows_at(k, &r, &mr)) continue;
            AggState& st = state(k);
            ++st.cnt;
            st.any = true;
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          const bool is_min = a.fn == AggFn::kMin;
          if (a.stream == Stream::kInt) {
            for (size_t k = 0; k < bn; ++k) {
              if (!rows_at(k, &r, &mr)) continue;
              int64_t v = m != nullptr ? c.i64[r] * m->i64[mr] : c.i64[r];
              AggState& st = state(k);
              // Strict double comparison like EvalCmp: first value wins
              // ties, including int64 pairs that collapse as doubles.
              double d = static_cast<double>(v);
              double e = static_cast<double>(st.ext_i);
              if (!st.any || (is_min ? d < e : d > e)) st.ext_i = v;
              st.any = true;
            }
          } else if (a.stream == Stream::kDbl) {
            for (size_t k = 0; k < bn; ++k) {
              if (!rows_at(k, &r, &mr)) continue;
              double v =
                  m != nullptr ? NumAt(c, r) * NumAt(*m, mr) : NumAt(c, r);
              AggState& st = state(k);
              if (!st.any || (is_min ? v < st.ext_d : v > st.ext_d)) {
                st.ext_d = v;
              }
              st.any = true;
            }
          } else {  // Stream::kStr (unscaled: a string mult is kNullStream)
            for (size_t k = 0; k < bn; ++k) {
              if (!rows_at(k, &r, &mr)) continue;
              int32_t code = c.codes[r];
              AggState& st = state(k);
              if (!st.any) {
                st.ext_code = code;
              } else if (code != st.ext_code) {
                int cm = c.dict[static_cast<size_t>(code)].compare(
                    c.dict[static_cast<size_t>(st.ext_code)]);
                if (is_min ? cm < 0 : cm > 0) st.ext_code = code;
              }
              st.any = true;
            }
          }
          break;
        }
      }
    }
  }

  // Emit [group values..., aggregate finishes...]; group values are the
  // first-encountered originals, like GroupAggregate.
  std::vector<Row> out;
  out.reserve(first_pos.size());
  for (size_t g = 0; g < first_pos.size(); ++g) {
    Row row;
    row.reserve(ng + nspecs);
    for (size_t i = 0; i < ng; ++i) {
      row.push_back(group_cols_[i]->ValueAt(RowAt(group_ids[i], first_pos[g])));
    }
    for (size_t s = 0; s < nspecs; ++s) {
      const Agg& a = aggs_[s];
      const AggState& st = states[g * nspecs + s];
      switch (a.fn) {
        case AggFn::kMin:
        case AggFn::kMax:
          if (!st.any) {
            row.push_back(Value::Null());
          } else if (a.stream == Stream::kInt) {
            row.push_back(Value::Int64(st.ext_i));
          } else if (a.stream == Stream::kDbl) {
            row.push_back(Value::Double(st.ext_d));
          } else {
            row.push_back(
                Value::String(a.col->dict[static_cast<size_t>(st.ext_code)]));
          }
          break;
        case AggFn::kSum:
          if (!st.any) {
            row.push_back(Value::Null());
          } else if (a.stream == Stream::kInt) {
            row.push_back(Value::Int64(st.sum_i));
          } else {
            row.push_back(Value::Double(st.sum_d));
          }
          break;
        case AggFn::kCount:
          row.push_back(Value::Int64(st.cnt));
          break;
        case AggFn::kAvg:
          row.push_back(st.cnt == 0
                            ? Value::Null()
                            : Value::Double(st.sum_d /
                                            static_cast<double>(st.cnt)));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace aqv
