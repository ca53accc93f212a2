#include "relational/sql.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace volcano::rel {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind {
    kIdent,   // possibly qualified: rel or rel.attr
    kInt,
    kComma,
    kStar,
    kEq,
    kLt,
    kLe,
    kGt,
    kGe,
    kLParen,
    kRParen,
    kEnd,
    kBad,  // a byte that starts no token
  };
  Kind kind;
  std::string_view text;  // a view into the scanned SQL
  size_t pos = 0;  // byte offset in the source text, for error payloads
};

// The scanner's byte classes: <cctype>'s in the "C" locale (the program
// never sets another), from one table instead of a library call per byte.
enum : uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4, kIdentChar = 8 };
constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kIdentChar;
  for (int c = 'a'; c <= 'z'; ++c) {
    t[c] = t[c - 'a' + 'A'] = kIdentStart | kIdentChar;
  }
  t['_'] = kIdentStart | kIdentChar;
  t['.'] = kIdentChar;
  return t;
}();
bool Is(char c, uint8_t cls) {
  return kByteClass[static_cast<unsigned char>(c)] & cls;
}

/// The one SQL scanner: the token at or after `pos` (leading white space
/// skipped), kEnd at the end of the input, kBad with the offending byte as
/// its text. The next token starts at `t.pos + t.text.size()`.
Token ScanToken(std::string_view sql, size_t pos) {
  while (pos < sql.size() && Is(sql[pos], kSpace)) ++pos;
  if (pos == sql.size()) return {Token::Kind::kEnd, {}, pos};
  auto token = [&](Token::Kind kind, size_t end) {
    return Token{kind, sql.substr(pos, end - pos), pos};
  };
  size_t end = pos + 1;
  char c = sql[pos];
  if (Is(c, kIdentStart)) {
    while (end < sql.size() && Is(sql[end], kIdentChar)) ++end;
    return token(Token::Kind::kIdent, end);
  }
  if (Is(c, kDigit) ||
      (c == '-' && end < sql.size() && Is(sql[end], kDigit))) {
    while (end < sql.size() && Is(sql[end], kDigit)) ++end;
    return token(Token::Kind::kInt, end);
  }
  bool then_eq = end < sql.size() && sql[end] == '=';
  switch (c) {
    case ',': return token(Token::Kind::kComma, end);
    case '*': return token(Token::Kind::kStar, end);
    case '(': return token(Token::Kind::kLParen, end);
    case ')': return token(Token::Kind::kRParen, end);
    case '=': return token(Token::Kind::kEq, end);
    case '<':
      return then_eq ? token(Token::Kind::kLe, end + 1)
                     : token(Token::Kind::kLt, end);
    case '>':
      return then_eq ? token(Token::Kind::kGe, end + 1)
                     : token(Token::Kind::kGt, end);
    default: return token(Token::Kind::kBad, end);
  }
}

Status BadCharacter(const Token& t) {
  return Status::InvalidArgument("unexpected character '" +
                                 std::string(t.text) + "' in SQL")
      .WithDetail("character", std::string(t.text))
      .WithDetail("position", std::to_string(t.pos));
}

StatusOr<std::vector<Token>> Lex(std::string_view sql) {
  std::vector<Token> out;
  for (size_t pos = 0;;) {
    Token t = ScanToken(sql, pos);
    if (t.kind == Token::Kind::kBad) return BadCharacter(t);
    out.push_back(t);
    if (t.kind == Token::Kind::kEnd) return out;
    pos = t.pos + t.text.size();
  }
}

bool EqualsUpper(std::string_view text, std::string_view kw) {
  if (text.size() != kw.size()) return false;
  for (size_t i = 0; i < kw.size(); ++i) {
    char c = text[i];
    if ((c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c) != kw[i]) {
      return false;
    }
  }
  return true;
}

bool KeywordIs(const Token& t, std::string_view kw) {
  return t.kind == Token::Kind::kIdent && EqualsUpper(t.text, kw);
}

// ---------------------------------------------------------------------------
// Parser / translator
// ---------------------------------------------------------------------------

/// Deepest allowed subquery nesting (the top-level query is depth 0).
constexpr int kMaxSubqueryDepth = 3;

struct Selection {
  Symbol attr;
  CmpOp op;
  int64_t constant;
};

struct JoinPred {
  Symbol left;
  Symbol right;
};

/// `... LEFT [OUTER] JOIN rel ON outer_attr = inner_attr`.
struct OuterJoinClause {
  Symbol rel;         // the nullable-side relation
  Symbol outer_attr;  // attribute of an already-joined relation
  Symbol inner_attr;  // attribute of `rel`
};

struct QueryBlock;

/// `attr [NOT] IN (block)` or `[NOT] EXISTS (block)`.
struct SubqueryClause {
  Symbol outer_attr;  // IN only; EXISTS correlates through a WHERE predicate
  SubqueryKind kind;
  bool negated;
  std::unique_ptr<QueryBlock> body;
};

/// One SELECT...FROM...WHERE block; the top-level query and every subquery
/// body parse into this shape.
struct QueryBlock {
  bool select_star = false;
  bool count_star = false;
  bool distinct = false;
  std::vector<Symbol> select_list;
  std::vector<Symbol> from;  // comma-listed (inner-joined) relations
  std::vector<OuterJoinClause> outer_joins;
  std::vector<Selection> selections;
  std::vector<JoinPred> joins;
  std::vector<SubqueryClause> subqueries;
  std::optional<Symbol> group_by;
  struct Having {
    bool on_count;  // COUNT(*) vs. the grouping attribute
    CmpOp op;
    int64_t constant;
  };
  std::optional<Having> having;
  std::vector<Symbol> order_by;  // top level only
};

/// An equality predicate tying a subquery body to its enclosing block.
struct Correlation {
  Symbol outer_attr;
  Symbol inner_attr;
};

class SqlParser {
 public:
  SqlParser(std::vector<Token> tokens, const RelModel& model,
            SymbolTable& symbols)
      : tokens_(std::move(tokens)), model_(model), symbols_(symbols) {}

  StatusOr<ParsedQuery> Run();

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Consume(std::string_view kw) {
    if (KeywordIs(Peek(), kw)) {
      Advance();
      return true;
    }
    return false;
  }
  /// "expected <what>, found '<next token>'", with the matching details.
  Status Expected(std::string_view what) const {
    std::string found(Peek().text);
    return Status::InvalidArgument("expected " + std::string(what) +
                                   ", found '" + found + "'")
        .WithDetail("expected", std::string(what))
        .WithDetail("found", std::move(found))
        .WithDetail("position", std::to_string(Peek().pos));
  }
  Status Expect(std::string_view kw) {
    return Consume(kw) ? Status::OK() : Expected(kw);
  }
  Status ExpectToken(Token::Kind kind, std::string_view what) {
    if (Peek().kind != kind) return Expected(what);
    Advance();
    return Status::OK();
  }

  StatusOr<Symbol> ExpectAttribute() {
    if (Peek().kind != Token::Kind::kIdent) return Expected("attribute");
    size_t at = Peek().pos;
    std::string_view name = Advance().text;
    Symbol sym = model_.symbols().Lookup(name);
    if (!sym.valid() || !model_.catalog().RelationOf(sym).valid()) {
      return Status::InvalidArgument("unknown attribute " + std::string(name))
          .WithDetail("attribute", std::string(name))
          .WithDetail("position", std::to_string(at));
    }
    return sym;
  }

  StatusOr<CmpOp> ParseCmpOp() {
    CmpOp op;
    switch (Peek().kind) {
      case Token::Kind::kEq: op = CmpOp::kEq; break;
      case Token::Kind::kLt: op = CmpOp::kLess; break;
      case Token::Kind::kLe: op = CmpOp::kLessEq; break;
      case Token::Kind::kGt: op = CmpOp::kGreater; break;
      case Token::Kind::kGe: op = CmpOp::kGreaterEq; break;
      default: return Expected("comparison");
    }
    Advance();
    return op;
  }

  StatusOr<int64_t> ExpectInt() {
    if (Peek().kind != Token::Kind::kInt) return Expected("integer");
    const Token& t = Advance();
    int64_t value = 0;
    auto [end, ec] =
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), value);
    if (ec != std::errc()) {
      return Status::InvalidArgument("integer out of range: " +
                                     std::string(t.text))
          .WithDetail("found", std::string(t.text))
          .WithDetail("position", std::to_string(t.pos));
    }
    return value;
  }

  StatusOr<std::unique_ptr<QueryBlock>> ParseBlock(int depth);
  Status ParseSelectList(QueryBlock* q);
  Status ParseFrom(QueryBlock* q);
  Status ParseWhere(QueryBlock* q, int depth);
  Status ParseGroupBy(QueryBlock* q);
  Status ParseHaving(QueryBlock* q);
  Status ParseOrderBy(QueryBlock* q);

  /// Translates one block. For a subquery body, `outer_rels` names the
  /// enclosing block's relations and `correlations_out` receives the
  /// equality predicates that referenced them; the top level passes null.
  StatusOr<ExprPtr> TranslateBlock(QueryBlock& q,
                                   const std::vector<Symbol>* outer_rels,
                                   std::vector<Correlation>* correlations_out,
                                   bool top_level);

  /// Estimated selectivity of `attr op constant` under uniformity on
  /// [0, distinct).
  double EstimateSelectivity(Symbol attr, CmpOp op, int64_t constant) const {
    double d = std::max(1.0, model_.catalog().DistinctOf(attr));
    double frac;
    switch (op) {
      case CmpOp::kLess: frac = static_cast<double>(constant) / d; break;
      case CmpOp::kLessEq: frac = (constant + 1.0) / d; break;
      case CmpOp::kEq: frac = 1.0 / d; break;
      case CmpOp::kGreaterEq: frac = (d - constant) / d; break;
      case CmpOp::kGreater: frac = (d - constant - 1.0) / d; break;
      default: frac = 0.5;
    }
    return std::clamp(frac, 0.001, 1.0);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const RelModel& model_;
  SymbolTable& symbols_;
};

Status SqlParser::ParseSelectList(QueryBlock* q) {
  Status s = Expect("SELECT");
  if (!s.ok()) return s;
  if (Consume("DISTINCT")) q->distinct = true;
  if (Peek().kind == Token::Kind::kStar) {
    Advance();
    q->select_star = true;
    return Status::OK();
  }
  while (true) {
    if (KeywordIs(Peek(), "COUNT")) {
      Advance();
      if (Peek().kind != Token::Kind::kLParen) {
        return Status::InvalidArgument("expected ( after COUNT");
      }
      Advance();
      if (Peek().kind != Token::Kind::kStar) {
        return Status::InvalidArgument("only COUNT(*) is supported");
      }
      Advance();
      if (Peek().kind != Token::Kind::kRParen) {
        return Status::InvalidArgument("expected ) after COUNT(*");
      }
      Advance();
      q->count_star = true;
    } else {
      StatusOr<Symbol> attr = ExpectAttribute();
      if (!attr.ok()) return attr.status();
      q->select_list.push_back(*attr);
    }
    if (Peek().kind != Token::Kind::kComma) break;
    Advance();
  }
  return Status::OK();
}

Status SqlParser::ParseFrom(QueryBlock* q) {
  Status s = Expect("FROM");
  if (!s.ok()) return s;
  auto listed = [&](Symbol rel) {
    if (std::find(q->from.begin(), q->from.end(), rel) != q->from.end()) {
      return true;
    }
    for (const OuterJoinClause& oj : q->outer_joins) {
      if (oj.rel == rel) return true;
    }
    return false;
  };
  auto parse_relation = [&]() -> StatusOr<Symbol> {
    if (Peek().kind != Token::Kind::kIdent) return Expected("relation name");
    size_t at = Peek().pos;
    std::string name(Advance().text);
    Symbol rel = model_.symbols().Lookup(name);
    if (!rel.valid() || model_.catalog().FindRelation(rel) == nullptr) {
      return Status::InvalidArgument("unknown relation " + name)
          .WithDetail("relation", name)
          .WithDetail("position", std::to_string(at));
    }
    if (listed(rel)) {
      return Status::InvalidArgument("relation listed twice: " + name)
          .WithDetail("relation", name)
          .WithDetail("position", std::to_string(at));
    }
    return rel;
  };

  StatusOr<Symbol> first = parse_relation();
  if (!first.ok()) return first.status();
  q->from.push_back(*first);
  while (true) {
    if (Peek().kind == Token::Kind::kComma) {
      Advance();
      StatusOr<Symbol> rel = parse_relation();
      if (!rel.ok()) return rel.status();
      q->from.push_back(*rel);
      continue;
    }
    if (KeywordIs(Peek(), "RIGHT") || KeywordIs(Peek(), "FULL")) {
      std::string found(Peek().text);
      return Status::InvalidArgument(
                 "only LEFT [OUTER] JOIN is supported, found '" + found + "'")
          .WithDetail("expected", "LEFT")
          .WithDetail("found", std::move(found))
          .WithDetail("position", std::to_string(Peek().pos));
    }
    if (!KeywordIs(Peek(), "LEFT")) break;
    Advance();
    Consume("OUTER");  // optional
    Status s2 = Expect("JOIN");
    if (!s2.ok()) return s2;
    StatusOr<Symbol> rel = parse_relation();
    if (!rel.ok()) return rel.status();
    s2 = Expect("ON");
    if (!s2.ok()) return s2;
    StatusOr<Symbol> a = ExpectAttribute();
    if (!a.ok()) return a.status();
    s2 = ExpectToken(Token::Kind::kEq, "=");
    if (!s2.ok()) return s2;
    StatusOr<Symbol> b = ExpectAttribute();
    if (!b.ok()) return b.status();
    const Catalog& catalog = model_.catalog();
    OuterJoinClause oj;
    oj.rel = *rel;
    if (catalog.RelationOf(*a) == *rel && catalog.RelationOf(*b) != *rel) {
      oj.inner_attr = *a;
      oj.outer_attr = *b;
    } else if (catalog.RelationOf(*b) == *rel &&
               catalog.RelationOf(*a) != *rel) {
      oj.inner_attr = *b;
      oj.outer_attr = *a;
    } else {
      return Status::InvalidArgument(
          "ON clause must equate one attribute of the joined relation with "
          "one of a preceding relation");
    }
    q->outer_joins.push_back(oj);
  }
  return Status::OK();
}

Status SqlParser::ParseWhere(QueryBlock* q, int depth) {
  if (!Consume("WHERE")) return Status::OK();
  while (true) {
    if (KeywordIs(Peek(), "NOT") || KeywordIs(Peek(), "EXISTS")) {
      // [NOT] EXISTS ( SELECT ... )
      bool negated = Consume("NOT");
      Status s = Expect("EXISTS");
      if (!s.ok()) return s;
      s = ExpectToken(Token::Kind::kLParen, "(");
      if (!s.ok()) return s;
      StatusOr<std::unique_ptr<QueryBlock>> body = ParseBlock(depth + 1);
      if (!body.ok()) return body.status();
      s = ExpectToken(Token::Kind::kRParen, ")");
      if (!s.ok()) return s;
      q->subqueries.push_back(SubqueryClause{
          Symbol(), SubqueryKind::kExists, negated, std::move(*body)});
    } else {
      StatusOr<Symbol> left = ExpectAttribute();
      if (!left.ok()) return left.status();

      if (KeywordIs(Peek(), "NOT") || KeywordIs(Peek(), "IN")) {
        // attr [NOT] IN ( SELECT ... )
        bool negated = Consume("NOT");
        Status s = Expect("IN");
        if (!s.ok()) return s;
        s = ExpectToken(Token::Kind::kLParen, "(");
        if (!s.ok()) return s;
        StatusOr<std::unique_ptr<QueryBlock>> body = ParseBlock(depth + 1);
        if (!body.ok()) return body.status();
        s = ExpectToken(Token::Kind::kRParen, ")");
        if (!s.ok()) return s;
        q->subqueries.push_back(SubqueryClause{
            *left, SubqueryKind::kIn, negated, std::move(*body)});
      } else {
        StatusOr<CmpOp> op = ParseCmpOp();
        if (!op.ok()) return op.status();

        if (Peek().kind == Token::Kind::kInt) {
          StatusOr<int64_t> constant = ExpectInt();
          if (!constant.ok()) return constant.status();
          q->selections.push_back(Selection{*left, *op, *constant});
        } else {
          StatusOr<Symbol> right = ExpectAttribute();
          if (!right.ok()) return right.status();
          if (*op != CmpOp::kEq) {
            return Status::InvalidArgument(
                "only equi-join predicates between attributes are supported");
          }
          if (model_.catalog().RelationOf(*left) ==
              model_.catalog().RelationOf(*right)) {
            return Status::InvalidArgument(
                "join predicate must reference two different relations");
          }
          q->joins.push_back(JoinPred{*left, *right});
        }
      }
    }
    if (!Consume("AND")) break;
  }
  return Status::OK();
}

Status SqlParser::ParseGroupBy(QueryBlock* q) {
  if (!Consume("GROUP")) return Status::OK();
  Status s = Expect("BY");
  if (!s.ok()) return s;
  StatusOr<Symbol> attr = ExpectAttribute();
  if (!attr.ok()) return attr.status();
  q->group_by = *attr;
  return Status::OK();
}

Status SqlParser::ParseHaving(QueryBlock* q) {
  if (!Consume("HAVING")) return Status::OK();
  if (!q->group_by.has_value()) {
    return Status::InvalidArgument("HAVING requires GROUP BY");
  }
  QueryBlock::Having h{};
  if (KeywordIs(Peek(), "COUNT")) {
    Advance();
    Status s = ExpectToken(Token::Kind::kLParen, "(");
    if (!s.ok()) return s;
    s = ExpectToken(Token::Kind::kStar, "*");
    if (!s.ok()) return s;
    s = ExpectToken(Token::Kind::kRParen, ")");
    if (!s.ok()) return s;
    h.on_count = true;
  } else {
    StatusOr<Symbol> attr = ExpectAttribute();
    if (!attr.ok()) return attr.status();
    if (*attr != *q->group_by) {
      return Status::InvalidArgument(
          "HAVING must filter COUNT(*) or the grouping attribute");
    }
    h.on_count = false;
  }
  StatusOr<CmpOp> op = ParseCmpOp();
  if (!op.ok()) return op.status();
  StatusOr<int64_t> constant = ExpectInt();
  if (!constant.ok()) return constant.status();
  h.op = *op;
  h.constant = *constant;
  q->having = h;
  return Status::OK();
}

Status SqlParser::ParseOrderBy(QueryBlock* q) {
  if (!Consume("ORDER")) return Status::OK();
  Status s = Expect("BY");
  if (!s.ok()) return s;
  while (true) {
    StatusOr<Symbol> attr = ExpectAttribute();
    if (!attr.ok()) return attr.status();
    q->order_by.push_back(*attr);
    if (Peek().kind != Token::Kind::kComma) break;
    Advance();
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<QueryBlock>> SqlParser::ParseBlock(int depth) {
  if (depth > kMaxSubqueryDepth) {
    return Status::InvalidArgument(
               "subquery nesting exceeds the supported depth of " +
               std::to_string(kMaxSubqueryDepth))
        .WithDetail("expected",
                    "subquery depth <= " + std::to_string(kMaxSubqueryDepth))
        .WithDetail("found", "subquery depth " + std::to_string(depth))
        .WithDetail("position", std::to_string(Peek().pos));
  }
  auto q = std::make_unique<QueryBlock>();
  Status s = ParseSelectList(q.get());
  if (!s.ok()) return s;
  s = ParseFrom(q.get());
  if (!s.ok()) return s;
  s = ParseWhere(q.get(), depth);
  if (!s.ok()) return s;
  if (depth == 0) {
    s = ParseGroupBy(q.get());
    if (!s.ok()) return s;
    s = ParseHaving(q.get());
    if (!s.ok()) return s;
    s = ParseOrderBy(q.get());
    if (!s.ok()) return s;
  } else if (KeywordIs(Peek(), "GROUP") || KeywordIs(Peek(), "HAVING") ||
             KeywordIs(Peek(), "ORDER")) {
    return Status::InvalidArgument(
               "GROUP BY, HAVING and ORDER BY are not supported inside "
               "subqueries")
        .WithDetail("found", std::string(Peek().text))
        .WithDetail("position", std::to_string(Peek().pos));
  }
  return q;
}

StatusOr<ExprPtr> SqlParser::TranslateBlock(
    QueryBlock& q, const std::vector<Symbol>* outer_rels,
    std::vector<Correlation>* correlations_out, bool top_level) {
  const Catalog& catalog = model_.catalog();

  // All relations this block introduces (inner-joined and outer-joined).
  std::vector<Symbol> local = q.from;
  for (const OuterJoinClause& oj : q.outer_joins) local.push_back(oj.rel);

  auto in_local = [&](Symbol attr) {
    Symbol rel = catalog.RelationOf(attr);
    return std::find(local.begin(), local.end(), rel) != local.end();
  };
  auto in_outer = [&](Symbol attr) {
    if (outer_rels == nullptr) return false;
    Symbol rel = catalog.RelationOf(attr);
    return std::find(outer_rels->begin(), outer_rels->end(), rel) !=
           outer_rels->end();
  };

  // Every referenced attribute must belong to a FROM relation.
  for (Symbol attr : q.select_list) {
    if (!in_local(attr)) {
      return Status::InvalidArgument("attribute not in FROM relations: " +
                                     model_.symbols().Name(attr));
    }
  }
  for (const Selection& sel : q.selections) {
    if (!in_local(sel.attr)) {
      return Status::InvalidArgument("attribute not in FROM relations: " +
                                     model_.symbols().Name(sel.attr));
    }
  }
  if (q.group_by.has_value() && !in_local(*q.group_by)) {
    return Status::InvalidArgument("GROUP BY attribute not in FROM");
  }
  for (const SubqueryClause& sc : q.subqueries) {
    if (sc.kind == SubqueryKind::kIn && !in_local(sc.outer_attr)) {
      return Status::InvalidArgument("attribute not in FROM relations: " +
                                     model_.symbols().Name(sc.outer_attr));
    }
  }

  // Split the equality predicates: both sides local → join; one side in the
  // enclosing block → correlation (subquery bodies only).
  std::vector<JoinPred> joins;
  for (const JoinPred& j : q.joins) {
    bool l_local = in_local(j.left);
    bool r_local = in_local(j.right);
    if (l_local && r_local) {
      joins.push_back(j);
    } else if (l_local && in_outer(j.right)) {
      correlations_out->push_back(Correlation{j.right, j.left});
    } else if (r_local && in_outer(j.left)) {
      correlations_out->push_back(Correlation{j.left, j.right});
    } else {
      return Status::InvalidArgument(
          "join predicate references a relation missing from FROM");
    }
  }

  // Per-relation leaf: GET plus the relation's selections. Selections on an
  // outer-joined (nullable-side) relation do NOT sink here — SQL applies
  // WHERE after the join, so they filter the padded rows above the join.
  auto is_outer_joined = [&](Symbol rel) {
    for (const OuterJoinClause& oj : q.outer_joins) {
      if (oj.rel == rel) return true;
    }
    return false;
  };
  auto leaf = [&](Symbol rel) {
    ExprPtr e = model_.Get(rel);
    for (const Selection& sel : q.selections) {
      if (catalog.RelationOf(sel.attr) != rel) continue;
      e = model_.Select(std::move(e), sel.attr, sel.op, sel.constant,
                        EstimateSelectivity(sel.attr, sel.op, sel.constant));
    }
    return e;
  };

  // Connect the FROM relations with the join predicates: repeatedly attach
  // a predicate with exactly one side already in the tree.
  std::vector<Symbol> in_tree{q.from[0]};
  ExprPtr root = leaf(q.from[0]);
  std::vector<bool> used(joins.size(), false);
  auto contains = [&](Symbol rel) {
    return std::find(in_tree.begin(), in_tree.end(), rel) != in_tree.end();
  };
  for (size_t round = 1; round < q.from.size(); ++round) {
    bool attached = false;
    for (size_t j = 0; j < joins.size() && !attached; ++j) {
      if (used[j]) continue;
      Symbol lrel = catalog.RelationOf(joins[j].left);
      Symbol rrel = catalog.RelationOf(joins[j].right);
      Symbol tree_attr, new_attr, new_rel;
      if (contains(lrel) && !contains(rrel)) {
        tree_attr = joins[j].left;
        new_attr = joins[j].right;
        new_rel = rrel;
      } else if (contains(rrel) && !contains(lrel)) {
        tree_attr = joins[j].right;
        new_attr = joins[j].left;
        new_rel = lrel;
      } else {
        continue;  // both in (redundant/cyclic) or neither yet
      }
      if (is_outer_joined(new_rel)) {
        return Status::InvalidArgument(
            "equality predicate on an outer-joined relation must be its ON "
            "clause: " +
            model_.symbols().Name(new_rel));
      }
      used[j] = true;
      root = model_.Join(std::move(root), leaf(new_rel), tree_attr, new_attr);
      in_tree.push_back(new_rel);
      attached = true;
    }
    if (!attached) {
      return Status::InvalidArgument(
          "join graph does not connect all FROM relations (cross products "
          "are not supported)");
    }
  }
  for (size_t j = 0; j < joins.size(); ++j) {
    if (!used[j]) {
      return Status::InvalidArgument(
          "redundant or cyclic join predicate not representable in a join "
          "tree");
    }
  }

  // Outer joins attach above the inner-join tree, in clause order.
  for (const OuterJoinClause& oj : q.outer_joins) {
    if (!contains(catalog.RelationOf(oj.outer_attr))) {
      return Status::InvalidArgument(
          "LEFT JOIN ON clause must reference a preceding relation: " +
          model_.symbols().Name(oj.outer_attr));
    }
    root = model_.LeftOuterJoin(std::move(root), model_.Get(oj.rel),
                                oj.outer_attr, oj.inner_attr);
    in_tree.push_back(oj.rel);
  }
  // WHERE predicates on nullable-side relations filter above the outer
  // join. Last clause first, so the topmost LEFT JOIN gets its filter
  // directly on top — the SELECT(LEFT_OUTER_JOIN) shape the null-rejection
  // simplification rule matches.
  for (auto oj = q.outer_joins.rbegin(); oj != q.outer_joins.rend(); ++oj) {
    for (const Selection& sel : q.selections) {
      if (catalog.RelationOf(sel.attr) != oj->rel) continue;
      root = model_.Select(std::move(root), sel.attr, sel.op, sel.constant,
                           EstimateSelectivity(sel.attr, sel.op,
                                               sel.constant));
    }
  }

  // Subquery predicates (WHERE, so below any aggregation).
  for (SubqueryClause& sc : q.subqueries) {
    std::vector<Correlation> correlations;
    StatusOr<ExprPtr> body =
        TranslateBlock(*sc.body, &local, &correlations, /*top_level=*/false);
    if (!body.ok()) return body.status();
    Symbol outer_attr, inner_attr;
    if (sc.kind == SubqueryKind::kIn) {
      if (!correlations.empty()) {
        return Status::InvalidArgument(
            "correlated IN subqueries are not supported; use EXISTS");
      }
      if (sc.body->select_star || sc.body->select_list.size() != 1) {
        return Status::InvalidArgument(
            "IN subquery must select exactly one attribute");
      }
      outer_attr = sc.outer_attr;
      inner_attr = sc.body->select_list[0];
    } else {
      if (correlations.size() != 1) {
        return Status::InvalidArgument(
            "EXISTS subquery must be correlated through exactly one "
            "equality predicate");
      }
      outer_attr = correlations[0].outer_attr;
      inner_attr = correlations[0].inner_attr;
    }
    root = model_.Subquery(std::move(root), *body, outer_attr, inner_attr,
                           sc.kind, sc.negated);
  }

  if (!top_level) {
    if (q.count_star) {
      return Status::InvalidArgument("COUNT(*) requires GROUP BY");
    }
    // DISTINCT in a subquery body is the logical operator — the absorption
    // rules then prove it redundant under the semi/antijoin.
    if (q.distinct) root = model_.Distinct(std::move(root));
    return root;
  }

  // GROUP BY / HAVING.
  if (q.group_by.has_value()) {
    if (!q.count_star || q.select_list.size() != 1 ||
        q.select_list[0] != *q.group_by) {
      return Status::InvalidArgument(
          "GROUP BY queries must have the shape SELECT <group attr>, "
          "COUNT(*)");
    }
    Symbol count_attr = symbols_.Intern("count(*)");
    root = model_.Aggregate(std::move(root), *q.group_by, count_attr);
    if (q.having.has_value()) {
      // HAVING is a post-aggregate SELECT on the aggregate's two-column
      // output. No catalog statistics exist for count(*), so its
      // selectivity is a fixed guess.
      Symbol attr = q.having->on_count ? count_attr : *q.group_by;
      double sel = q.having->on_count
                       ? 0.5
                       : EstimateSelectivity(attr, q.having->op,
                                             q.having->constant);
      root = model_.Select(std::move(root), attr, q.having->op,
                           q.having->constant, sel);
    }
    return root;
  }
  if (q.count_star) {
    return Status::InvalidArgument("COUNT(*) requires GROUP BY");
  }

  // Projection.
  if (!q.select_star) {
    root = model_.Project(std::move(root), q.select_list);
  }
  return root;
}

StatusOr<ParsedQuery> SqlParser::Run() {
  StatusOr<std::unique_ptr<QueryBlock>> block = ParseBlock(0);
  if (!block.ok()) return block.status();
  QueryBlock& q = **block;
  if (Peek().kind != Token::Kind::kEnd) {
    std::string found(Peek().text);
    return Status::InvalidArgument("trailing input: '" + found + "'")
        .WithDetail("found", std::move(found))
        .WithDetail("position", std::to_string(Peek().pos));
  }

  // ORDER BY attributes must survive into the final result.
  for (Symbol attr : q.order_by) {
    bool visible;
    if (q.group_by.has_value()) {
      visible = attr == *q.group_by;
    } else if (q.select_star) {
      visible = true;
    } else {
      visible = std::find(q.select_list.begin(), q.select_list.end(), attr) !=
                q.select_list.end();
    }
    if (!visible) {
      return Status::InvalidArgument(
          "ORDER BY attribute not in the result: " +
          model_.symbols().Name(attr));
    }
  }

  StatusOr<ExprPtr> expr =
      TranslateBlock(q, nullptr, nullptr, /*top_level=*/true);
  if (!expr.ok()) return expr.status();

  ParsedQuery out;
  out.expr = *expr;
  // SELECT DISTINCT is a *physical property requirement* (uniqueness), not a
  // logical operator: the optimizer chooses between the sort-based and the
  // hash-based dedup enforcer, or gets the property for free (aggregation,
  // intersection).
  if (q.distinct) {
    out.required = q.order_by.empty() ? model_.Unique()
                                      : model_.SortedUnique(q.order_by);
  } else {
    out.required =
        q.order_by.empty() ? model_.AnyProps() : model_.Sorted(q.order_by);
  }
  return out;
}

}  // namespace

StatusOr<ParsedQuery> ParseSql(std::string_view sql, const RelModel& model,
                               SymbolTable& symbols) {
  // Interned symbols must live in the same table the model's arguments
  // resolve against.
  VOLCANO_CHECK(&symbols == &model.symbols());
  StatusOr<std::vector<Token>> tokens = Lex(sql);
  if (!tokens.ok()) return tokens.status();
  SqlParser parser(std::move(*tokens), model, symbols);
  return parser.Run();
}

StatusOr<std::string> NormalizeSql(std::string_view sql,
                                   const Catalog& catalog) {
  static constexpr std::string_view kKeywords[] = {
      "SELECT", "DISTINCT", "COUNT",  "FROM", "WHERE", "AND",    "GROUP",
      "ORDER",  "BY",       "LEFT",   "OUTER", "JOIN", "ON",     "IN",
      "EXISTS", "NOT",      "HAVING",
  };
  auto keyword = [](std::string_view text) -> std::string_view {
    for (std::string_view kw : kKeywords) {
      if (EqualsUpper(text, kw)) return kw;
    }
    return {};
  };
  std::string out;
  out.reserve(sql.size());
  for (size_t pos = 0;;) {
    Token t = ScanToken(sql, pos);
    if (t.kind == Token::Kind::kEnd) return out;
    if (t.kind == Token::Kind::kBad) return BadCharacter(t);
    pos = t.pos + t.text.size();
    std::string_view text = t.text;
    if (t.kind == Token::Kind::kIdent) {
      // Fold a keyword spelling to upper case, unless the exact spelling
      // names a catalog object (a relation called "from" stays itself).
      // Any other identifier comes out as written either way, so only a
      // keyword spelled other than in upper case needs the catalog.
      std::string_view kw = keyword(text);
      if (!kw.empty() && kw != text) {
        Symbol sym = catalog.symbols().Lookup(text);
        bool is_catalog_name =
            sym.valid() && (catalog.FindRelation(sym) != nullptr ||
                            catalog.RelationOf(sym).valid());
        if (!is_catalog_name) text = kw;
      }
    }
    if (!out.empty()) out += ' ';
    out += text;
  }
}

}  // namespace volcano::rel
