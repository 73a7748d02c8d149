#ifndef AQV_PARSER_LEXER_H_
#define AQV_PARSER_LEXER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace aqv {

/// Token kinds of the single-block SQL dialect.
enum class TokenKind {
  kIdentifier,  // plan_name, R1, Calls
  kInteger,     // 1995
  kFloat,       // 3.5
  kString,      // 'abc'
  kLParen,
  kRParen,
  kComma,
  kDot,
  kStar,
  kSlash,
  kMinus,  // sign prefix on numeric literals
  kPlus,
  kEq,   // =
  kNe,   // <> or !=
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier/string contents
  /// kInteger: the numeral's value, unsigned (a sign is its own token).
  /// The magnitude 2^63 is stored as INT64_MIN; read it through
  /// SignedIntValue, which accepts it only after a minus.
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t offset = 0;  // byte offset in the input, for error messages

  /// Case-insensitive keyword test for identifier tokens.
  bool IsKeyword(std::string_view keyword) const;
};

/// The value of integer token `t` under an optional leading minus. The
/// magnitude 2^63 is INT64_MIN when negated and out of range otherwise.
/// Inline: an INSERT of many rows reads every integer literal through it.
inline Result<int64_t> SignedIntValue(const Token& t, bool negate) {
  if (t.int_value != std::numeric_limits<int64_t>::min()) {
    return negate ? -t.int_value : t.int_value;
  }
  if (negate) return t.int_value;
  return Status::InvalidArgument("numeral out of range at offset " +
                                 std::to_string(t.offset) +
                                 ": 9223372036854775808");
}

/// Splits `sql` into tokens. Keywords are not distinguished from
/// identifiers at this level (SQL keywords are contextual here).
Result<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace aqv

#endif  // AQV_PARSER_LEXER_H_
