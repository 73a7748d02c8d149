#include "exec/vectorized.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <type_traits>

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

// ---------------------------------------------------------------------------
// Key table: dense ids for the keys of a hash join's build side or of a
// group-by, assigned in first-insertion order.

std::string KeyForm::ToString() const {
  switch (kind) {
    case Kind::kDirect:
      return "direct[" + std::to_string(span) + "]";
    case Kind::kHashed:
      return "hashed";
    case Kind::kNone:
      break;
  }
  return "none";
}

namespace {

constexpr uint32_t kNoKey = UINT32_MAX;

/// A join never matches a NULL key; a group-by gives NULL a group of its
/// own, as GroupAggregate does.
enum class NullKeys : uint8_t { kNeverMatch, kOwnGroup };

/// One key column as a relation reads it: position p reads row
/// RowAt(ids, p) of `col`. `xlat` (the probe side of a string join key)
/// maps the column's dictionary codes to the build column's codes, -1 for
/// strings the build column never holds. It is empty for a column whose
/// own codes are keyed, and for one holding only NULLs.
struct KeyCol {
  const Column* col = nullptr;
  const uint32_t* ids = nullptr;
  std::vector<int32_t> xlat;
};

/// Calls f(k, r) for each slot k of the n-position batch at `base`, with r
/// the row that position reads: the identity check is made per batch.
template <typename F>
inline void ForRows(const uint32_t* ids, size_t base, size_t n, F&& f) {
  if (ids == nullptr) {
    for (size_t k = 0; k < n; ++k) f(k, base + k);
  } else {
    const uint32_t* rows = ids + base;
    for (size_t k = 0; k < n; ++k) f(k, rows[k]);
  }
}

inline uint64_t HashWords(const uint64_t* w, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= w[i];
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

/// For each code of `probe`'s dictionary, the code of the same string in
/// `build`'s, or -1 where `build` lacks it (or is not a string column).
std::vector<int32_t> TranslateDict(const Column& probe, const Column& build) {
  std::vector<int32_t> xlat(probe.dict.size(), -1);
  if (build.type != ColumnType::kString) return xlat;
  const std::vector<std::string>& bd = build.dict;
  std::vector<int32_t> sorted(bd.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<int32_t>(i);
  }
  auto str = [&bd](int32_t code) -> const std::string& {
    return bd[static_cast<size_t>(code)];
  };
  std::sort(sorted.begin(), sorted.end(),
            [&](int32_t a, int32_t b) { return str(a) < str(b); });
  for (size_t i = 0; i < probe.dict.size(); ++i) {
    const std::string& s = probe.dict[i];
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), s,
        [&](int32_t code, const std::string& v) { return str(code) < v; });
    if (it != sorted.end() && str(*it) == s) xlat[i] = *it;
  }
  return xlat;
}

/// Maps keys to dense ids in first-insertion order. The form is chosen at
/// construction from the key's type and span:
///
///  - direct: one INT64 key column whose [min, max] span is at most
///    kDirectSpanPerRow slots per keyed position. Value v's id sits at
///    slot v - min of an array, and a group-by's NULL group in one more
///    slot. A probe value outside [min, max] wraps past the array.
///  - hashed: every other key. Each column contributes a canonical
///    (tag, bits) pair — tag 0 NULL, 1 integer space (INT64 and integral
///    DOUBLE, CanonicalKey's rule), 2 other DOUBLE (IEEE bits), 3 string
///    (build-side dictionary code) — with the 2-bit tags packed into
///    leading tag words. The keys sit inline in one flat open-addressing
///    table: a slot is [hash high 32 bits | id, key words...].
///
/// Keys are encoded a batch at a time: one typed loop per key column, then
/// hashes, then lookups.
class KeyTable {
 public:
  /// Keys `cols` over `rows` relation positions. `direct_ok` is false when
  /// a probe side cannot take the direct form (a non-INT64 probe column).
  /// The hashed form starts with room for `reserve` keys.
  KeyTable(std::vector<KeyCol> cols, size_t rows, NullKeys nulls,
           bool direct_ok, size_t reserve)
      : cols_(std::move(cols)), nulls_(nulls) {
    const Column* c = cols_.size() == 1 ? cols_[0].col : nullptr;
    if (direct_ok && c != nullptr && c->HasRange() &&
        static_cast<uint64_t>(c->max) - static_cast<uint64_t>(c->min) <
            kDirectSpanPerRow * rows) {
      direct_ = true;
      min_ = c->min;
      span_ = static_cast<uint64_t>(c->max) - static_cast<uint64_t>(c->min) + 1;
      slot_ids_.assign(span_ + (nulls == NullKeys::kOwnGroup ? 1 : 0), kNoKey);
      slot_.resize(kBatchRows);
      return;
    }
    tag_words_ = (cols_.size() + 31) / 32;
    width_ = tag_words_ + cols_.size();
    stride_ = 1 + width_;
    size_t capacity = 16;
    while (capacity < 2 * reserve) capacity <<= 1;
    mask_ = capacity - 1;
    table_.assign(capacity * stride_, kEmpty);
    words_.resize(kBatchRows * width_);
    hash_.resize(kBatchRows);
    valid_.resize(kBatchRows);
  }

  /// Ids of the keys at positions [base, base + n) into out[0, n),
  /// inserting keys the table lacks in position order; kNoKey for a key
  /// that never matches. n <= kBatchRows.
  void Insert(size_t base, size_t n, uint32_t* out) {
    if (direct_) {
      EncodeDirect(cols_[0], base, n);
      LookupDirect<true>(n, out);
    } else {
      EncodeHashed(cols_, base, n);
      LookupHashed<true>(n, out);
    }
  }

  /// Ids of the keys `probe` (one column per key column) reads at positions
  /// [base, base + n), kNoKey for keys the table lacks. n <= kBatchRows.
  void Find(const std::vector<KeyCol>& probe, size_t base, size_t n,
            uint32_t* out) {
    if (direct_) {
      EncodeDirect(probe[0], base, n);
      LookupDirect<false>(n, out);
    } else {
      EncodeHashed(probe, base, n);
      LookupHashed<false>(n, out);
    }
  }

  /// Number of distinct keys inserted; ids are [0, size()).
  uint32_t size() const { return count_; }

  KeyForm form() const {
    return direct_ ? KeyForm{KeyForm::Kind::kDirect, span_}
                   : KeyForm{KeyForm::Kind::kHashed, 0};
  }

 private:
  static constexpr uint64_t kDirectSpanPerRow = 4;
  static constexpr uint64_t kEmpty = UINT64_MAX;
  static constexpr uint64_t kHashHigh = 0xffffffff00000000ULL;

  void EncodeDirect(const KeyCol& kc, size_t base, size_t n) {
    const Column& c = *kc.col;
    const int64_t* v = c.i64.data();
    const uint64_t lo = static_cast<uint64_t>(min_);
    uint64_t* slot = slot_.data();
    ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
      slot[k] = static_cast<uint64_t>(v[r]) - lo;
    });
    if (c.has_nulls) {
      const uint64_t null_slot =
          nulls_ == NullKeys::kOwnGroup ? span_ : kEmpty;
      ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
        if (c.IsNull(r)) slot[k] = null_slot;
      });
    }
  }

  void EncodeHashed(const std::vector<KeyCol>& cols, size_t base, size_t n) {
    const size_t w = width_;
    uint64_t* const kw = words_.data();
    uint8_t* const valid = valid_.data();
    std::fill_n(valid, n, 1);
    for (size_t c = 0; c < cols.size(); ++c) {
      const KeyCol& kc = cols[c];
      const Column& col = *kc.col;
      uint64_t* const tags = kw + c / 32;
      uint64_t* const bits = kw + tag_words_ + c;
      const unsigned shift = 2 * (c % 32);
      // The first column of a tag word assigns it, the others add to it.
      const uint64_t keep = shift == 0 ? 0 : ~uint64_t{0};
      auto put = [=](size_t k, uint64_t tag, uint64_t b) {
        tags[k * w] = (tags[k * w] & keep) | (tag << shift);
        bits[k * w] = b;
      };
      switch (col.type) {
        case ColumnType::kInt64: {
          const int64_t* v = col.i64.data();
          ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
            put(k, 1, static_cast<uint64_t>(v[r]));
          });
          break;
        }
        case ColumnType::kDouble: {
          const double* v = col.f64.data();
          ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
            const double d = v[r];
            const int64_t i = static_cast<int64_t>(d);
            if (static_cast<double>(i) == d) {
              put(k, 1, static_cast<uint64_t>(i));
            } else {
              put(k, 2, std::bit_cast<uint64_t>(d));
            }
          });
          break;
        }
        case ColumnType::kString: {
          const int32_t* codes = col.codes.data();
          if (kc.xlat.empty()) {
            ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
              put(k, 3, static_cast<uint32_t>(codes[r]));
            });
            break;
          }
          const int32_t* xlat = kc.xlat.data();
          ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
            const int32_t code = codes[r] < 0 ? -1 : xlat[codes[r]];
            valid[k] &= code >= 0;
            put(k, 3, static_cast<uint32_t>(code));
          });
          break;
        }
        case ColumnType::kMixed:
          break;  // rejected before a key table is built
      }
      // A NULL takes tag 0. Its bits stay those of the column's NULL slot
      // payload, which is the same in every row.
      if (col.has_nulls) {
        const bool own_group = nulls_ == NullKeys::kOwnGroup;
        ForRows(kc.ids, base, n, [&](size_t k, size_t r) {
          if (!col.IsNull(r)) return;
          tags[k * w] &= ~(uint64_t{3} << shift);
          valid[k] &= own_group;
        });
      }
    }
    for (size_t k = 0; k < n; ++k) hash_[k] = HashWords(kw + k * w, w);
  }

  template <bool kInsert>
  void LookupDirect(size_t n, uint32_t* out) {
    const uint64_t slots = slot_ids_.size();
    for (size_t k = 0; k < n; ++k) {
      const uint64_t s = slot_[k];
      if (s >= slots) {
        out[k] = kNoKey;
        continue;
      }
      uint32_t id = slot_ids_[s];
      if (kInsert && id == kNoKey) id = slot_ids_[s] = count_++;
      out[k] = id;
    }
  }

  template <bool kInsert>
  void LookupHashed(size_t n, uint32_t* out) {
    constexpr size_t kAhead = 8;
    for (size_t k = 0; k < n; ++k) {
      if (k + kAhead < n) {
        __builtin_prefetch(&table_[(hash_[k + kAhead] & mask_) * stride_]);
      }
      if (!valid_[k]) {
        out[k] = kNoKey;
        continue;
      }
      const uint64_t h = hash_[k];
      const uint64_t* key = &words_[k * width_];
      for (size_t s = h & mask_;; s = (s + 1) & mask_) {
        uint64_t* e = &table_[s * stride_];
        if (e[0] == kEmpty) {
          out[k] = kNoKey;
          if constexpr (kInsert) {
            e[0] = (h & kHashHigh) | count_;
            std::copy_n(key, width_, e + 1);
            out[k] = count_++;
            if (2 * static_cast<size_t>(count_) > mask_ + 1) Grow();
          }
          break;
        }
        if (((e[0] ^ h) & kHashHigh) == 0 && SameKey(key, e + 1)) {
          out[k] = static_cast<uint32_t>(e[0]);
          break;
        }
      }
    }
  }

  bool SameKey(const uint64_t* a, const uint64_t* b) const {
    uint64_t diff = 0;
    for (size_t i = 0; i < width_; ++i) diff |= a[i] ^ b[i];
    return diff == 0;
  }

  /// Doubles the hashed table, rehashing every key from its inline words.
  void Grow() {
    std::vector<uint64_t> old(std::move(table_));
    const size_t capacity = 2 * (mask_ + 1);
    mask_ = capacity - 1;
    table_.assign(capacity * stride_, kEmpty);
    for (size_t e = 0; e < old.size(); e += stride_) {
      if (old[e] == kEmpty) continue;
      const uint64_t h = HashWords(&old[e + 1], width_);
      size_t s = h & mask_;
      while (table_[s * stride_] != kEmpty) s = (s + 1) & mask_;
      std::copy_n(&old[e], stride_, &table_[s * stride_]);
    }
  }

  std::vector<KeyCol> cols_;
  NullKeys nulls_;
  bool direct_ = false;
  uint32_t count_ = 0;

  // Direct form.
  int64_t min_ = 0;
  uint64_t span_ = 0;
  std::vector<uint32_t> slot_ids_;
  std::vector<uint64_t> slot_;  // per batch: array slot of each position

  // Hashed form.
  size_t tag_words_ = 0;
  size_t width_ = 0;   // key words
  size_t stride_ = 0;  // words per table slot
  size_t mask_ = 0;
  std::vector<uint64_t> table_;
  std::vector<uint64_t> words_;  // per batch: width_ key words a position
  std::vector<uint64_t> hash_;
  std::vector<uint8_t> valid_;  // per batch: 0 = the key never matches
};

}  // namespace

KeyForm JoinIndex::HashJoin(const RelationColumns& rel,
                            const std::vector<std::pair<int, int>>& keys,
                            int input, const SelVector& sel,
                            ExecContext* ctx) {
  const RowIds rel_ids = ids();
  // Build on the smaller side, like HashJoin (left = relation, right = the
  // new input's selection).
  const bool build_rel = size_ <= sel.size();
  const size_t nb = build_rel ? size_ : sel.size();
  const size_t np = build_rel ? sel.size() : size_;

  const size_t nk = keys.size();
  std::vector<KeyCol> build(nk), probe(nk);
  bool probe_int64 = true;
  for (size_t c = 0; c < nk; ++c) {
    size_t bo = static_cast<size_t>(keys[c].first);
    size_t no = static_cast<size_t>(keys[c].second);
    KeyCol& rel_side = build_rel ? build[c] : probe[c];
    KeyCol& new_side = build_rel ? probe[c] : build[c];
    rel_side.col = rel.cols[bo];
    rel_side.ids = rel_ids[static_cast<size_t>(rel.inputs[bo])];
    new_side.col = rel.cols[no];
    new_side.ids = sel.data();
    probe_int64 &= probe[c].col->type == ColumnType::kInt64;
    if (probe[c].col->type == ColumnType::kString) {
      // String keys compare by content: translate the probe dictionary into
      // build codes once, so the hot loop compares integers.
      probe[c].xlat = TranslateDict(*probe[c].col, *build[c].col);
    }
  }
  KeyTable table(std::move(build), nb, NullKeys::kNeverMatch, probe_int64, nb);

  // Build: each build position's key id, then every key's build positions
  // laid out contiguously in insertion order.
  std::vector<uint32_t> build_key(nb);
  for (size_t base = 0; base < nb; base += kBatchRows) {
    const size_t end = std::min(nb, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) return table.form();
    table.Insert(base, end - base, build_key.data() + base);
  }
  std::vector<uint32_t> first(table.size() + 1, 0);  // key id -> positions
  for (uint32_t id : build_key) {
    if (id != kNoKey) ++first[id + 1];
  }
  for (size_t id = 0; id < table.size(); ++id) first[id + 1] += first[id];
  std::vector<uint32_t> positions(first.back());
  {
    std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
    for (size_t pos = 0; pos < nb; ++pos) {
      const uint32_t id = build_key[pos];
      if (id != kNoKey) positions[cursor[id]++] = static_cast<uint32_t>(pos);
    }
  }

  // Probe in order; each hit emits its build positions in insertion order —
  // the row HashJoin's output order. Emitted: relation positions, and the
  // new input's rows.
  SelVector out_rel, new_rows;
  out_rel.reserve(np);
  new_rows.reserve(np);
  std::array<uint32_t, kBatchRows> hits;
  for (size_t base = 0; base < np; base += kBatchRows) {
    const size_t end = std::min(np, base + kBatchRows);
    if (ctx != nullptr && !ctx->TickRows(end - base)) return table.form();
    table.Find(probe, base, end - base, hits.data());
    for (size_t k = 0; k < end - base; ++k) {
      const uint32_t id = hits[k];
      if (id == kNoKey) continue;
      const uint32_t count = first[id + 1] - first[id];
      if (ctx != nullptr && !ctx->TickRows(count)) return table.form();
      const uint32_t* hit = positions.data() + first[id];
      const uint32_t pos = static_cast<uint32_t>(base + k);
      for (uint32_t i = 0; i < count; ++i) {
        out_rel.push_back(build_rel ? hit[i] : pos);
        new_rows.push_back(sel[build_rel ? pos : hit[i]]);
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
  rows_[static_cast<size_t>(input)] = std::move(new_rows);
  bound_.push_back(input);
  size_ = out_rel.size();
  return table.form();
}

// ---------------------------------------------------------------------------
// Aggregation.

namespace {

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
                                            ExecContext* ctx,
                                            KeyForm* keys) const {
  const size_t nspecs = aggs_.size();
  const size_t ng = group_cols_.size();
  auto ids_of = [&ids](int input) { return ids[static_cast<size_t>(input)]; };

  std::vector<uint32_t> first_pos;  // each group's first relation position
  std::vector<AggState> states;
  std::vector<const uint32_t*> group_ids(ng);
  std::optional<KeyTable> groups;
  if (ng == 0) {
    // Global aggregate: exactly one group, present even on empty input.
    first_pos.push_back(0);
    states.resize(nspecs);
  } else {
    std::vector<KeyCol> cols(ng);
    for (size_t g = 0; g < ng; ++g) {
      group_ids[g] = ids_of(group_inputs_[g]);
      cols[g].col = group_cols_[g];
      cols[g].ids = group_ids[g];
    }
    groups.emplace(std::move(cols), total, NullKeys::kOwnGroup,
                   /*direct_ok=*/true, std::min(total, kBatchRows));
  }
  if (keys != nullptr) *keys = groups ? groups->form() : KeyForm{};

  std::vector<uint32_t> gids(kBatchRows);
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, total - base);
    if (ctx != nullptr && !ctx->TickRows(bn)) break;

    // Stage 1: group id per position; ids are dense in first-encountered
    // order, so a new id is the next group.
    if (ng == 0) {
      std::fill_n(gids.begin(), bn, 0u);
    } else {
      groups->Insert(base, bn, gids.data());
      if (groups->size() > first_pos.size()) {
        for (size_t k = 0; k < bn; ++k) {
          if (gids[k] == first_pos.size()) {
            first_pos.push_back(static_cast<uint32_t>(base + k));
          }
        }
        states.resize(first_pos.size() * nspecs);
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
