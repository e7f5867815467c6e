#include "xquery/parser.h"

#include <cctype>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace standoff {
namespace xquery {

bool IsStandoffAxis(Axis axis) {
  return axis == Axis::kSelectNarrow || axis == Axis::kSelectWide ||
         axis == Axis::kRejectNarrow || axis == Axis::kRejectWide;
}

namespace {

enum class Tok {
  kName, kString, kNumber,
  kSlash, kDoubleSlash, kAxisSep,  // "/", "//", "::"
  kLBracket, kRBracket, kLParen, kRParen,
  kAt, kEq, kDollar, kSemi, kPlus, kStar,
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;   // name or string payload
  double number = 0;
};

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    while (true) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ >= text_.size()) {
        out->push_back(Token{Tok::kEnd, "", 0});
        return Status::OK();
      }
      const char c = text_[pos_];
      if (IsNameStart(c)) {
        size_t begin = pos_;
        while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
        out->push_back(
            Token{Tok::kName, std::string(text_.substr(begin, pos_ - begin)),
                  0});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t begin = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.')) {
          ++pos_;
        }
        StatusOr<double> value = ParseDouble(text_.substr(begin, pos_ - begin));
        if (!value.ok()) return value.status();
        out->push_back(Token{Tok::kNumber, "", *value});
        continue;
      }
      if (c == '"' || c == '\'') {
        size_t end = text_.find(c, pos_ + 1);
        if (end == std::string_view::npos) {
          return Status::Invalid("unterminated string literal");
        }
        out->push_back(
            Token{Tok::kString,
                  std::string(text_.substr(pos_ + 1, end - pos_ - 1)), 0});
        pos_ = end + 1;
        continue;
      }
      switch (c) {
        case '/':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
            out->push_back(Token{Tok::kDoubleSlash, "", 0});
            pos_ += 2;
          } else {
            out->push_back(Token{Tok::kSlash, "", 0});
            ++pos_;
          }
          continue;
        case ':':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
            out->push_back(Token{Tok::kAxisSep, "", 0});
            pos_ += 2;
            continue;
          }
          return Status::Invalid("stray ':' in query");
        case '[': out->push_back(Token{Tok::kLBracket, "", 0}); break;
        case ']': out->push_back(Token{Tok::kRBracket, "", 0}); break;
        case '(': out->push_back(Token{Tok::kLParen, "", 0}); break;
        case ')': out->push_back(Token{Tok::kRParen, "", 0}); break;
        case '@': out->push_back(Token{Tok::kAt, "", 0}); break;
        case '=': out->push_back(Token{Tok::kEq, "", 0}); break;
        case '$': out->push_back(Token{Tok::kDollar, "", 0}); break;
        case ';': out->push_back(Token{Tok::kSemi, "", 0}); break;
        case '+': out->push_back(Token{Tok::kPlus, "", 0}); break;
        case '*': out->push_back(Token{Tok::kStar, "", 0}); break;
        default:
          return Status::Invalid(std::string("unexpected character '") + c +
                                 "' in query");
      }
      ++pos_;
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Query> Parse() {
    Query query;
    STANDOFF_RETURN_IF_ERROR(ParseProlog(&query.prolog));
    StatusOr<ExprPtr> body = ParseExpr();
    if (!body.ok()) return body.status();
    if (Peek().kind != Tok::kEnd) {
      return Status::Invalid("trailing input after query expression");
    }
    query.body = std::move(*body);
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool PeekName(const char* word, size_t ahead = 0) const {
    return Peek(ahead).kind == Tok::kName && Peek(ahead).text == word;
  }
  Status Expect(Tok kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::Invalid(std::string("expected ") + what);
    }
    Advance();
    return Status::OK();
  }

  Status ParseProlog(Prolog* prolog) {
    while (PeekName("declare")) {
      Advance();
      if (!PeekName("option")) {
        return Status::Invalid("only 'declare option' is supported");
      }
      Advance();
      if (Peek().kind != Tok::kName) {
        return Status::Invalid("expected option name");
      }
      const std::string option = Advance().text;
      if (Peek().kind != Tok::kString) {
        return Status::Invalid("expected option value string");
      }
      const std::string value = Advance().text;
      if (option == "standoff-type") prolog->standoff_type = value;
      STANDOFF_RETURN_IF_ERROR(Expect(Tok::kSemi, "';' after declare option"));
    }
    return Status::OK();
  }

  /// Every recursive descent passes through here, so this one counter
  /// bounds the parser's stack and the depth of the tree it builds.
  StatusOr<ExprPtr> ParseExpr() {
    if (depth_ >= kMaxParseDepth) return TooDeep();
    ++depth_;
    StatusOr<ExprPtr> expr = PeekName("for") ? ParseFor() : ParseAdditive();
    --depth_;
    return expr;
  }

  static Status TooDeep() {
    return Status::Invalid("query nests deeper than " +
                           std::to_string(kMaxParseDepth) + " levels");
  }

  StatusOr<ExprPtr> ParseFor() {
    Advance();  // 'for'
    STANDOFF_RETURN_IF_ERROR(Expect(Tok::kDollar, "'$' after for"));
    if (Peek().kind != Tok::kName) {
      return Status::Invalid("expected variable name after '$'");
    }
    auto expr = std::make_unique<Expr>(Expr::Kind::kFor);
    expr->var = Advance().text;
    if (!PeekName("in")) return Status::Invalid("expected 'in' in for clause");
    Advance();
    StatusOr<ExprPtr> in_expr = ParseExpr();
    if (!in_expr.ok()) return in_expr.status();
    expr->in_expr = std::move(*in_expr);
    if (!PeekName("return")) {
      return Status::Invalid("expected 'return' in for expression");
    }
    Advance();
    StatusOr<ExprPtr> ret = ParseExpr();
    if (!ret.ok()) return ret.status();
    expr->ret_expr = std::move(*ret);
    return expr;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    StatusOr<ExprPtr> lhs = ParseUnary();
    if (!lhs.ok()) return lhs.status();
    ExprPtr expr = std::move(*lhs);
    // Each '+' deepens the left-leaning tree by one level. An error
    // ends the whole parse, so only success restores the counter.
    const int depth = depth_;
    while (Peek().kind == Tok::kPlus) {
      if (++depth_ > kMaxParseDepth) return TooDeep();
      Advance();
      StatusOr<ExprPtr> rhs = ParseUnary();
      if (!rhs.ok()) return rhs.status();
      auto add = std::make_unique<Expr>(Expr::Kind::kAdd);
      add->lhs = std::move(expr);
      add->rhs = std::move(*rhs);
      expr = std::move(add);
    }
    depth_ = depth;
    return expr;
  }

  StatusOr<ExprPtr> ParseUnary() {
    const Token& token = Peek();
    if (token.kind == Tok::kString) {
      auto expr = std::make_unique<Expr>(Expr::Kind::kStringLit);
      expr->string_value = Advance().text;
      return expr;
    }
    if (token.kind == Tok::kNumber) {
      auto expr = std::make_unique<Expr>(Expr::Kind::kNumberLit);
      expr->number_value = Advance().number;
      return expr;
    }
    if (token.kind == Tok::kLParen) {
      Advance();
      StatusOr<ExprPtr> inner = ParseExpr();
      if (!inner.ok()) return inner.status();
      STANDOFF_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return inner;
    }
    if (PeekName("count") && Peek(1).kind == Tok::kLParen) {
      Advance();
      Advance();
      auto expr = std::make_unique<Expr>(Expr::Kind::kCount);
      StatusOr<ExprPtr> arg = ParseExpr();
      if (!arg.ok()) return arg.status();
      expr->lhs = std::move(*arg);
      STANDOFF_RETURN_IF_ERROR(Expect(Tok::kRParen, "')' after count(...)"));
      return expr;
    }
    return ParsePath();
  }

  StatusOr<ExprPtr> ParsePath() {
    auto expr = std::make_unique<Expr>(Expr::Kind::kPath);
    Tok sep = Tok::kSlash;
    if (Peek().kind == Tok::kDollar) {
      Advance();
      if (Peek().kind != Tok::kName) {
        return Status::Invalid("expected variable name after '$'");
      }
      expr->start_var = Advance().text;
      if (Peek().kind != Tok::kSlash && Peek().kind != Tok::kDoubleSlash) {
        return expr;  // bare variable reference
      }
      sep = Advance().kind;
    } else if (Peek().kind == Tok::kSlash ||
               Peek().kind == Tok::kDoubleSlash) {
      expr->absolute = true;
      sep = Advance().kind;
    } else if (Peek().kind != Tok::kName && Peek().kind != Tok::kStar) {
      return Status::Invalid("expected a path expression");
    }

    while (true) {
      StatusOr<Step> step = ParseStep(sep == Tok::kDoubleSlash);
      if (!step.ok()) return step.status();
      expr->steps.push_back(std::move(*step));
      if (Peek().kind != Tok::kSlash && Peek().kind != Tok::kDoubleSlash) {
        return expr;
      }
      sep = Advance().kind;
    }
  }

  /// Parses one step. With `descend` (the step follows "//"), a step
  /// without an explicit axis becomes a descendant step; an explicit
  /// axis after "//" is accepted only where it composes cleanly.
  StatusOr<Step> ParseStep(bool descend) {
    Step step;
    bool explicit_axis = false;
    if (Peek().kind == Tok::kName && Peek(1).kind == Tok::kAxisSep) {
      const std::string axis = Advance().text;
      Advance();  // '::'
      explicit_axis = true;
      if (axis == "child") {
        step.axis = Axis::kChild;
      } else if (axis == "descendant") {
        step.axis = Axis::kDescendant;
      } else if (axis == "descendant-or-self") {
        step.axis = Axis::kDescendantOrSelf;
      } else if (axis == "self") {
        step.axis = Axis::kSelf;
      } else if (axis == "select-narrow") {
        step.axis = Axis::kSelectNarrow;
      } else if (axis == "select-wide") {
        step.axis = Axis::kSelectWide;
      } else if (axis == "reject-narrow") {
        step.axis = Axis::kRejectNarrow;
      } else if (axis == "reject-wide") {
        step.axis = Axis::kRejectWide;
      } else {
        return Status::Invalid("unsupported axis '" + axis + "'");
      }
    }
    if (descend) {
      if (explicit_axis) {
        // "//axis::x" — only descendant-flavored axes compose cleanly in
        // this subset.
        if (step.axis != Axis::kDescendant &&
            step.axis != Axis::kSelectNarrow &&
            step.axis != Axis::kSelectWide) {
          return Status::Invalid("'//' before this axis is not supported");
        }
      } else {
        step.axis = Axis::kDescendant;
      }
    }
    if (Peek().kind == Tok::kStar) {
      Advance();
      step.any_name = true;
    } else if (PeekName("node") && Peek(1).kind == Tok::kLParen) {
      Advance();
      Advance();
      STANDOFF_RETURN_IF_ERROR(Expect(Tok::kRParen, "')' after node("));
      step.any_name = true;
    } else if (Peek().kind == Tok::kName) {
      step.name = Advance().text;
    } else {
      return Status::Invalid("expected a node test");
    }
    while (Peek().kind == Tok::kLBracket) {
      Advance();
      StatusOr<ExprPtr> pred = ParsePredicate();
      if (!pred.ok()) return pred.status();
      step.predicates.push_back(std::move(*pred));
      STANDOFF_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
    }
    return step;
  }

  StatusOr<ExprPtr> ParsePredicate() {
    if (Peek().kind != Tok::kAt) {
      return Status::Invalid(
          "only attribute predicates ([@name], [@name = \"...\"]) are "
          "supported");
    }
    Advance();
    if (Peek().kind != Tok::kName) {
      return Status::Invalid("expected attribute name after '@'");
    }
    const std::string name = Advance().text;
    if (Peek().kind == Tok::kEq) {
      Advance();
      if (Peek().kind != Tok::kString) {
        return Status::Invalid("expected string literal after '='");
      }
      auto expr = std::make_unique<Expr>(Expr::Kind::kAttrEquals);
      expr->attr_name = name;
      expr->string_value = Advance().text;
      return expr;
    }
    auto expr = std::make_unique<Expr>(Expr::Kind::kAttrExists);
    expr->attr_name = name;
    return expr;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // open nesting levels, at most kMaxParseDepth
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view text) {
  std::vector<Token> tokens;
  Lexer lexer(text);
  STANDOFF_RETURN_IF_ERROR(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace xquery
}  // namespace standoff
