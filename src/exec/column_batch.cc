#include "exec/column_batch.h"

#include <algorithm>

namespace aqv {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
    case ColumnType::kMixed:
      return "mixed";
  }
  return "unknown";
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type) {
    case ColumnType::kInt64:
      return Value::Int64(i64[row]);
    case ColumnType::kDouble:
      return Value::Double(f64[row]);
    case ColumnType::kString:
      return Value::String(dict[static_cast<size_t>(codes[row])]);
    case ColumnType::kMixed:
      return mixed[row];
  }
  return Value::Null();
}

namespace {

void SetNull(Column* c, size_t row) {
  c->null_words[row >> 6] |= uint64_t{1} << (row & 63);
  c->has_nulls = true;
}

}  // namespace

ColumnarTable ColumnarTable::FromRows(const std::vector<Row>& rows,
                                      int num_columns) {
  ColumnarTable out;
  out.num_rows_ = rows.size();
  size_t nc = static_cast<size_t>(num_columns);
  out.cols_.resize(nc);

  // Pass 1: infer each column's storage class. The first non-null value
  // fixes the type; any later non-null value of a different type degrades
  // the column to kMixed. All-null columns stay kInt64 (every slot is
  // covered by the bitmap, so the payload type is arbitrary).
  std::vector<ColumnType> inferred(nc, ColumnType::kInt64);
  std::vector<bool> seen(nc, false);
  for (const Row& row : rows) {
    for (size_t c = 0; c < nc; ++c) {
      const Value& v = row[c];
      if (v.is_null()) continue;
      ColumnType t;
      switch (v.type()) {
        case ValueType::kInt64:
          t = ColumnType::kInt64;
          break;
        case ValueType::kDouble:
          t = ColumnType::kDouble;
          break;
        default:
          t = ColumnType::kString;
          break;
      }
      if (!seen[c]) {
        seen[c] = true;
        inferred[c] = t;
      } else if (inferred[c] != t) {
        inferred[c] = ColumnType::kMixed;
      }
    }
  }

  size_t words = (rows.size() + 63) / 64;
  std::vector<std::unordered_map<std::string, int32_t>> dict_index(nc);
  for (size_t c = 0; c < nc; ++c) {
    Column& col = out.cols_[c];
    col.type = inferred[c];
    col.null_words.assign(words, 0);
    switch (col.type) {
      case ColumnType::kInt64:
        col.i64.assign(rows.size(), 0);
        break;
      case ColumnType::kDouble:
        col.f64.assign(rows.size(), 0.0);
        break;
      case ColumnType::kString:
        col.codes.assign(rows.size(), -1);
        break;
      case ColumnType::kMixed:
        col.mixed.resize(rows.size());
        break;
    }
  }

  // Pass 2: fill payloads, and the INT64 columns' value ranges with them.
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    for (size_t c = 0; c < nc; ++c) {
      const Value& v = row[c];
      Column& col = out.cols_[c];
      if (col.type == ColumnType::kMixed) {
        col.mixed[r] = v;
        if (v.is_null()) SetNull(&col, r);
        continue;
      }
      if (v.is_null()) {
        SetNull(&col, r);
        continue;
      }
      switch (col.type) {
        case ColumnType::kInt64: {
          const int64_t x = v.int64();
          col.i64[r] = x;
          col.min = std::min(col.min, x);
          col.max = std::max(col.max, x);
          break;
        }
        case ColumnType::kDouble:
          col.f64[r] = v.dbl();
          break;
        case ColumnType::kString: {
          auto [it, inserted] = dict_index[c].emplace(
              v.str(), static_cast<int32_t>(col.dict.size()));
          if (inserted) col.dict.push_back(v.str());
          col.codes[r] = it->second;
          break;
        }
        case ColumnType::kMixed:
          break;  // handled above
      }
    }
  }
  return out;
}

}  // namespace aqv
