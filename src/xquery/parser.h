// Recursive-descent parser for the supported XQuery subset.
#ifndef STANDOFF_XQUERY_PARSER_H_
#define STANDOFF_XQUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xquery/ast.h"

namespace standoff {
namespace xquery {

/// Deepest expression nesting ParseQuery accepts: every '(', 'for',
/// 'count(' and '+' opens one level. Deeper input is refused with
/// kInvalidArgument, so query text from outside can never overflow
/// the stack of the recursive parser, evaluator or AST destructor.
inline constexpr int kMaxParseDepth = 256;

StatusOr<Query> ParseQuery(std::string_view text);

}  // namespace xquery
}  // namespace standoff

#endif  // STANDOFF_XQUERY_PARSER_H_
