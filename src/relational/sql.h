// A small SQL front-end for the relational model.
//
// "The translation from a user interface into a logical algebra expression
// must be performed by the parser and is not discussed here" (paper, section
// 2.2) — this is that parser, for a compact SQL subset:
//
//   SELECT [DISTINCT] * | attr [, attr ...] | attr, COUNT(*)
//   FROM rel [, rel ...] [LEFT [OUTER] JOIN rel ON R.x = S.y]...
//   [WHERE conjunct [AND conjunct ...]]
//   [GROUP BY attr [HAVING COUNT(*) <op> c | attr <op> c]]
//   [ORDER BY attr [, attr ...]]
//
// where a conjunct is an equi-join predicate `R.x = S.y` (two attributes of
// different relations), a selection `R.x <op> constant`, a membership test
// `R.x [NOT] IN (SELECT S.y FROM ...)`, or an existence test
// `[NOT] EXISTS (SELECT ... WHERE S.y = R.x ...)` (correlated through
// exactly one equality). Subquery bodies are full blocks (joins, nested
// subqueries up to depth 3, SELECT DISTINCT — the logical DISTINCT
// operator); GROUP BY / HAVING / ORDER BY stay top-level only. RIGHT and
// FULL joins are rejected with a structured error. Attribute names are the
// catalog's qualified names (e.g. "emp.a0").
//
// Translation: selections are attached to their base relation's GET, join
// predicates connect the FROM relations into a join tree in the order they
// appear (queries whose join graph is disconnected — cross products — are
// rejected), LEFT JOIN becomes LEFT_OUTER_JOIN above the inner-join tree
// (WHERE filters on the nullable side stay above it, giving the
// null-rejection rule its SELECT(LEFT_OUTER_JOIN) shape), IN/EXISTS become
// SUBQUERY nodes the unnesting rules rewrite into semi/antijoins, GROUP BY
// becomes AGGREGATE, HAVING a post-aggregate SELECT, a projection list
// becomes PROJECT, and ORDER BY becomes the required physical property
// vector. Selectivities are estimated from catalog statistics (uniformity
// assumption). Errors carry {expected, found, position} detail payloads.

#ifndef VOLCANO_RELATIONAL_SQL_H_
#define VOLCANO_RELATIONAL_SQL_H_

#include <string>
#include <string_view>

#include "algebra/expr.h"
#include "relational/rel_model.h"

namespace volcano::rel {

/// A parsed and translated query.
struct ParsedQuery {
  ExprPtr expr;            ///< logical algebra expression
  PhysPropsPtr required;   ///< from ORDER BY; "any" if absent
};

/// Parses `sql` against the model's catalog; the count column of a GROUP BY
/// query is interned as "count(*)" in `symbols`. Returns InvalidArgument
/// with a description on syntax or semantic errors.
StatusOr<ParsedQuery> ParseSql(std::string_view sql, const RelModel& model,
                               SymbolTable& symbols);

/// Canonicalizes `sql` into a cache-signature string: the token stream
/// re-rendered with single-space separation and keyword spellings folded to
/// upper case (an identifier that names a catalog relation or attribute
/// keeps its spelling). Two texts with the same normalized form parse to the
/// same algebra expression and required properties, so the serving layer's
/// cross-query plan cache keys on this string (src/serve/plan_cache.h).
/// Constants are part of the signature — they feed selectivity estimation,
/// so parameterizing them could change the winning plan.
///
/// One pass over the text with ParseSql's own token scanner, appending each
/// token straight into the result. The catalog is consulted only for an
/// identifier that spells a keyword in other than upper case: any other
/// identifier is emitted as written whether or not it names a catalog
/// object. Text that cannot be tokenized returns the same InvalidArgument
/// (message, "character" and "position" details) that ParseSql returns.
StatusOr<std::string> NormalizeSql(std::string_view sql,
                                   const Catalog& catalog);

}  // namespace volcano::rel

#endif  // VOLCANO_RELATIONAL_SQL_H_
