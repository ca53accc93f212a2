// SQL front-end tests: parsing, translation to the logical algebra,
// semantic error reporting, and end-to-end optimize + execute.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "support/rng.h"

namespace volcano::rel {
namespace {

struct Fixture {
  Fixture() {
    VOLCANO_CHECK(catalog.AddRelation("emp", 500, 100, 3, {500, 40, 10}).ok());
    VOLCANO_CHECK(catalog.AddRelation("dept", 40, 100, 2, {40, 5}).ok());
    VOLCANO_CHECK(catalog.AddRelation("loc", 10, 100, 2, {10, 10}).ok());
    model = std::make_unique<RelModel>(catalog);
  }

  StatusOr<ParsedQuery> Parse(std::string_view sql) {
    return ParseSql(sql, *model, catalog.symbols());
  }

  std::string Render(const ParsedQuery& q) {
    return model->ExprToString(*q.expr);
  }

  Catalog catalog;
  std::unique_ptr<RelModel> model;
};

TEST(Sql, SelectStarSingleRelation) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q), "GET[emp]");
  EXPECT_EQ(q->required->ToString(), "any");
}

TEST(Sql, SelectionsAttachToBaseRelations) {
  Fixture f;
  StatusOr<ParsedQuery> q =
      f.Parse("SELECT * FROM emp WHERE emp.a1 < 10 AND emp.a2 = 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "SELECT[emp.a2 = 3](SELECT[emp.a1 < 10](GET[emp]))");
}

TEST(Sql, JoinTreeFollowsPredicates) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT * FROM emp, dept, loc "
      "WHERE emp.a1 = dept.a0 AND dept.a1 = loc.a0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "JOIN[dept.a1 = loc.a0](JOIN[emp.a1 = dept.a0](GET[emp], "
            "GET[dept]), GET[loc])");
}

TEST(Sql, ProjectionAndOrderBy) {
  Fixture f;
  StatusOr<ParsedQuery> q =
      f.Parse("SELECT emp.a0, emp.a1 FROM emp ORDER BY emp.a0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q), "PROJECT[emp.a0, emp.a1](GET[emp])");
  EXPECT_EQ(q->required->ToString(), "sorted(emp.a0)");
}

TEST(Sql, GroupByCount) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 ORDER BY emp.a1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q), "AGGREGATE[emp.a1 -> count count(*)](GET[emp])");
  EXPECT_EQ(q->required->ToString(), "sorted(emp.a1)");
}

TEST(Sql, KeywordsAreCaseInsensitive) {
  Fixture f;
  EXPECT_TRUE(f.Parse("select * from emp where emp.a1 < 5").ok());
  EXPECT_TRUE(f.Parse("SeLeCt * FrOm emp").ok());
}

TEST(Sql, ComparisonOperators) {
  Fixture f;
  for (const char* op : {"<", "<=", ">", ">=", "="}) {
    std::string sql = std::string("SELECT * FROM emp WHERE emp.a1 ") + op +
                      " 5";
    EXPECT_TRUE(f.Parse(sql).ok()) << sql;
  }
}

TEST(Sql, LeftJoinBecomesOuterJoin) {
  Fixture f;
  StatusOr<ParsedQuery> q =
      f.Parse("SELECT * FROM emp LEFT JOIN dept ON emp.a1 = dept.a0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "LEFT_OUTER_JOIN[emp.a1 = dept.a0](GET[emp], GET[dept])");
  // OUTER is optional noise.
  StatusOr<ParsedQuery> q2 =
      f.Parse("SELECT * FROM emp LEFT OUTER JOIN dept ON emp.a1 = dept.a0");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(f.Render(*q), f.Render(*q2));
}

TEST(Sql, NullableSideFilterStaysAboveOuterJoin) {
  // A WHERE filter on the nullable (inner) side cannot be pushed below the
  // outer join; it stays above, producing the SELECT(LEFT_OUTER_JOIN)
  // shape the null-rejection simplification rule matches. The outer-side
  // filter still attaches to its base relation.
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT * FROM emp LEFT JOIN dept ON emp.a1 = dept.a0 "
      "WHERE dept.a1 < 3 AND emp.a2 = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "SELECT[dept.a1 < 3](LEFT_OUTER_JOIN[emp.a1 = dept.a0]("
            "SELECT[emp.a2 = 1](GET[emp]), GET[dept]))");
}

TEST(Sql, InSubqueryBecomesSubqueryNode) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT emp.a0 FROM emp WHERE emp.a1 IN "
      "(SELECT dept.a0 FROM dept WHERE dept.a1 < 3)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "PROJECT[emp.a0](SUBQUERY[emp.a1 in dept.a0](GET[emp], "
            "SELECT[dept.a1 < 3](GET[dept])))");
}

TEST(Sql, ExistsAndNegationsBecomeSubqueryNodes) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT emp.a0 FROM emp WHERE NOT EXISTS "
      "(SELECT * FROM dept WHERE dept.a0 = emp.a1)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(f.Render(*q),
            "PROJECT[emp.a0](SUBQUERY[emp.a1 not exists dept.a0](GET[emp], "
            "GET[dept]))");

  StatusOr<ParsedQuery> q2 = f.Parse(
      "SELECT emp.a0 FROM emp WHERE emp.a1 NOT IN (SELECT dept.a0 FROM "
      "dept)");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(f.Render(*q2),
            "PROJECT[emp.a0](SUBQUERY[emp.a1 not in dept.a0](GET[emp], "
            "GET[dept]))");
}

TEST(Sql, DistinctIsRequiredPropertyAtTopLevelAndOperatorInBodies) {
  Fixture f;
  StatusOr<ParsedQuery> top = f.Parse("SELECT DISTINCT emp.a2 FROM emp");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(f.Render(*top), "PROJECT[emp.a2](GET[emp])");
  EXPECT_EQ(top->required->ToString(), "any unique");

  StatusOr<ParsedQuery> ordered =
      f.Parse("SELECT DISTINCT emp.a2 FROM emp ORDER BY emp.a2");
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered->required->ToString(), "sorted(emp.a2) unique");

  StatusOr<ParsedQuery> body = f.Parse(
      "SELECT emp.a0 FROM emp WHERE emp.a0 IN "
      "(SELECT DISTINCT dept.a0 FROM dept)");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(f.Render(*body),
            "PROJECT[emp.a0](SUBQUERY[emp.a0 in dept.a0](GET[emp], "
            "DISTINCT(GET[dept])))");
}

TEST(Sql, HavingBecomesPostAggregateSelect) {
  Fixture f;
  StatusOr<ParsedQuery> on_count = f.Parse(
      "SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 "
      "HAVING COUNT(*) > 20");
  ASSERT_TRUE(on_count.ok()) << on_count.status().ToString();
  EXPECT_EQ(f.Render(*on_count),
            "SELECT[count(*) > 20](AGGREGATE[emp.a1 -> count count(*)]("
            "GET[emp]))");

  StatusOr<ParsedQuery> on_attr = f.Parse(
      "SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 HAVING emp.a1 < 7");
  ASSERT_TRUE(on_attr.ok()) << on_attr.status().ToString();
  EXPECT_EQ(f.Render(*on_attr),
            "SELECT[emp.a1 < 7](AGGREGATE[emp.a1 -> count count(*)]("
            "GET[emp]))");
}

TEST(SqlErrors, UnknownRelationAndAttribute) {
  Fixture f;
  EXPECT_FALSE(f.Parse("SELECT * FROM ghosts").ok());
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE emp.zz < 3").ok());
  EXPECT_FALSE(f.Parse("SELECT dept.a0 FROM emp").ok());
}

TEST(SqlErrors, CrossProductRejected) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp, dept");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("cross product"), std::string::npos);
}

TEST(SqlErrors, NonEquiJoinRejected) {
  Fixture f;
  EXPECT_FALSE(
      f.Parse("SELECT * FROM emp, dept WHERE emp.a1 < dept.a0").ok());
}

TEST(SqlErrors, OrderByMustBeVisible) {
  Fixture f;
  EXPECT_FALSE(f.Parse("SELECT emp.a0 FROM emp ORDER BY emp.a1").ok());
  EXPECT_TRUE(f.Parse("SELECT emp.a0 FROM emp ORDER BY emp.a0").ok());
}

TEST(SqlErrors, GroupByShape) {
  Fixture f;
  EXPECT_FALSE(f.Parse("SELECT emp.a0 FROM emp GROUP BY emp.a1").ok());
  EXPECT_FALSE(f.Parse("SELECT COUNT(*) FROM emp").ok());
}

TEST(SqlErrors, TrailingGarbage) {
  Fixture f;
  EXPECT_FALSE(f.Parse("SELECT * FROM emp banana").ok());
}

// Error Statuses carry structured detail payloads — the serving layer
// forwards them verbatim in JSON error responses, so tooling can react to
// the offending object, not just a prose message.
TEST(SqlErrors, DetailPayloads) {
  Fixture f;
  {
    StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM ghosts");
    ASSERT_FALSE(q.ok());
    ASSERT_NE(q.status().FindDetail("relation"), nullptr);
    EXPECT_EQ(*q.status().FindDetail("relation"), "ghosts");
  }
  {
    StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp WHERE emp.zz < 3");
    ASSERT_FALSE(q.ok());
    ASSERT_NE(q.status().FindDetail("attribute"), nullptr);
    EXPECT_EQ(*q.status().FindDetail("attribute"), "emp.zz");
  }
  {
    StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp, emp");
    ASSERT_FALSE(q.ok());
    ASSERT_NE(q.status().FindDetail("relation"), nullptr);
  }
  {
    StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp banana");
    ASSERT_FALSE(q.ok());
    ASSERT_NE(q.status().FindDetail("found"), nullptr);
    EXPECT_EQ(*q.status().FindDetail("found"), "banana");
  }
  {
    StatusOr<ParsedQuery> q = f.Parse("SELECT * FROM emp WHERE \x01");
    ASSERT_FALSE(q.ok());
    EXPECT_NE(q.status().FindDetail("position"), nullptr);
  }
  {
    // FROM is consumed as an attribute name here; the payload names it.
    StatusOr<ParsedQuery> q = f.Parse("SELECT FROM emp");
    ASSERT_FALSE(q.ok());
    EXPECT_NE(q.status().FindDetail("attribute"), nullptr);
  }
}

TEST(SqlErrors, RightJoinRejectedWithStructuredPayload) {
  Fixture f;
  StatusOr<ParsedQuery> q =
      f.Parse("SELECT * FROM emp RIGHT JOIN dept ON emp.a1 = dept.a0");
  ASSERT_FALSE(q.ok());
  ASSERT_NE(q.status().FindDetail("expected"), nullptr);
  EXPECT_EQ(*q.status().FindDetail("expected"), "LEFT");
  ASSERT_NE(q.status().FindDetail("found"), nullptr);
  EXPECT_EQ(*q.status().FindDetail("found"), "RIGHT");
  ASSERT_NE(q.status().FindDetail("position"), nullptr);
  EXPECT_EQ(*q.status().FindDetail("position"), "18");

  StatusOr<ParsedQuery> full =
      f.Parse("SELECT * FROM emp FULL JOIN dept ON emp.a1 = dept.a0");
  ASSERT_FALSE(full.ok());
  ASSERT_NE(full.status().FindDetail("found"), nullptr);
  EXPECT_EQ(*full.status().FindDetail("found"), "FULL");
}

TEST(SqlErrors, SubqueryDepthLimit) {
  Fixture f;
  // Three levels of nesting are supported...
  EXPECT_TRUE(f.Parse(
                   "SELECT * FROM emp WHERE EXISTS (SELECT * FROM dept WHERE "
                   "dept.a0 = emp.a1 AND EXISTS (SELECT * FROM emp WHERE "
                   "emp.a1 = dept.a1 AND EXISTS (SELECT * FROM dept WHERE "
                   "dept.a0 = emp.a2)))")
                  .ok());
  // ...the fourth is rejected with a structured payload.
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT * FROM emp WHERE EXISTS (SELECT * FROM dept WHERE "
      "dept.a0 = emp.a1 AND EXISTS (SELECT * FROM emp WHERE "
      "emp.a1 = dept.a1 AND EXISTS (SELECT * FROM dept WHERE "
      "dept.a0 = emp.a2 AND EXISTS (SELECT * FROM emp WHERE "
      "emp.a1 = dept.a1))))");
  ASSERT_FALSE(q.ok());
  ASSERT_NE(q.status().FindDetail("expected"), nullptr);
  EXPECT_EQ(*q.status().FindDetail("expected"), "subquery depth <= 3");
  ASSERT_NE(q.status().FindDetail("found"), nullptr);
  EXPECT_EQ(*q.status().FindDetail("found"), "subquery depth 4");
  EXPECT_NE(q.status().FindDetail("position"), nullptr);
}

TEST(SqlErrors, SubqueryShapeRules) {
  Fixture f;
  // IN bodies must be uncorrelated with exactly one select-list attribute.
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE emp.a0 IN "
                       "(SELECT dept.a0 FROM dept WHERE dept.a1 = emp.a2)")
                   .ok());
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE emp.a0 IN "
                       "(SELECT dept.a0, dept.a1 FROM dept)")
                   .ok());
  EXPECT_FALSE(
      f.Parse("SELECT * FROM emp WHERE emp.a0 IN (SELECT * FROM dept)").ok());
  // EXISTS bodies must correlate through exactly one equality.
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE EXISTS "
                       "(SELECT * FROM dept WHERE dept.a1 < 3)")
                   .ok());
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE EXISTS "
                       "(SELECT * FROM dept WHERE dept.a0 = emp.a1 AND "
                       "dept.a1 = emp.a2)")
                   .ok());
  // Subquery bodies are blocks, not full queries: no GROUP BY / HAVING /
  // ORDER BY inside.
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE emp.a0 IN "
                       "(SELECT dept.a0 FROM dept GROUP BY dept.a0)")
                   .ok());
  EXPECT_FALSE(f.Parse("SELECT * FROM emp WHERE emp.a0 IN "
                       "(SELECT dept.a0 FROM dept ORDER BY dept.a0)")
                   .ok());
}

TEST(SqlErrors, HavingRequiresGroupBy) {
  Fixture f;
  EXPECT_FALSE(f.Parse("SELECT * FROM emp HAVING COUNT(*) > 3").ok());
  // HAVING may only reference COUNT(*) or the grouping attribute.
  EXPECT_FALSE(f.Parse("SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 "
                       "HAVING emp.a2 < 3")
                   .ok());
}

TEST(SqlErrors, IntegerOutOfRange) {
  // A constant that does not fit in 64 bits is a structured error, not an
  // exception out of the parser.
  Fixture f;
  for (const char* sql :
       {"SELECT * FROM emp WHERE emp.a1 < 99999999999999999999",
        "SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 "
        "HAVING COUNT(*) > -99999999999999999999"}) {
    StatusOr<ParsedQuery> q = f.Parse(sql);
    ASSERT_FALSE(q.ok()) << sql;
    EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument);
    ASSERT_NE(q.status().FindDetail("found"), nullptr);
    EXPECT_NE(q.status().FindDetail("found")->find("99999999999999999999"),
              std::string::npos);
    EXPECT_NE(q.status().FindDetail("position"), nullptr);
  }
  StatusOr<ParsedQuery> edge =
      f.Parse("SELECT * FROM emp WHERE emp.a1 > -9223372036854775808");
  EXPECT_TRUE(edge.ok()) << edge.status().ToString();
}

// Catalog mutators report the offending object the same way.
TEST(SqlErrors, CatalogDetailPayloads) {
  Fixture f;
  Symbol ghost = f.catalog.symbols().Intern("ghost.a0");
  Status s = f.catalog.SetDistinct(ghost, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.FindDetail("attribute"), nullptr);
}

// --- query normalization (the plan cache's signature pass) ---------------

TEST(SqlNormalize, KeywordCaseAndWhitespaceFold) {
  Fixture f;
  StatusOr<std::string> a =
      NormalizeSql("select * from emp where emp.a1 < 10", f.catalog);
  StatusOr<std::string> b =
      NormalizeSql("SELECT  *  FROM emp\tWHERE emp.a1 < 10", f.catalog);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SqlNormalize, ConstantsStayInTheSignature) {
  // Constants feed selectivity estimation, so they must distinguish
  // signatures — cached plans for other constants would be wrong.
  Fixture f;
  StatusOr<std::string> a =
      NormalizeSql("SELECT * FROM emp WHERE emp.a1 < 10", f.catalog);
  StatusOr<std::string> b =
      NormalizeSql("SELECT * FROM emp WHERE emp.a1 < 11", f.catalog);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

TEST(SqlNormalize, CatalogSpellingsArePreserved) {
  // An identifier that collides with a keyword but names a catalog object
  // must keep its spelling (folding it would alias distinct queries).
  Fixture f;
  VOLCANO_CHECK(f.catalog.AddRelation("from", 10, 10, 1).ok());
  StatusOr<std::string> s = NormalizeSql("SELECT * FROM from", f.catalog);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(*s, "SELECT * FROM from");
}

TEST(SqlNormalize, DecisionSupportKeywordsFold) {
  // The new surface's keywords are part of the signature alphabet and fold
  // case like the old ones — two spellings of the same query must share a
  // cache entry.
  Fixture f;
  StatusOr<std::string> a = NormalizeSql(
      "SELECT DISTINCT emp.a0 FROM emp LEFT OUTER JOIN dept ON "
      "emp.a1 = dept.a0 WHERE NOT EXISTS (SELECT * FROM loc WHERE "
      "loc.a0 = dept.a1)",
      f.catalog);
  StatusOr<std::string> b = NormalizeSql(
      "select distinct emp.a0 from emp left outer join dept on "
      "emp.a1 = dept.a0 where not exists (select * from loc where "
      "loc.a0 = dept.a1)",
      f.catalog);
  ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString();
  EXPECT_EQ(*a, *b);
  EXPECT_NE(a->find("DISTINCT"), std::string::npos);
  EXPECT_NE(a->find("EXISTS"), std::string::npos);
}

TEST(SqlNormalize, DistinctTwinsNeverCollide) {
  // Regression guard for the plan cache: a DISTINCT query and its
  // non-DISTINCT twin parse to different required properties, so their
  // signatures must differ — a collision would serve a deduplicating plan
  // for a query that wants duplicates (or vice versa). Same for HAVING
  // and LEFT JOIN twins, which change the algebra itself.
  Fixture f;
  const char* twins[][2] = {
      {"SELECT DISTINCT emp.a1 FROM emp", "SELECT emp.a1 FROM emp"},
      {"SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1 "
       "HAVING COUNT(*) > 3",
       "SELECT emp.a1, COUNT(*) FROM emp GROUP BY emp.a1"},
      {"SELECT * FROM emp LEFT JOIN dept ON emp.a1 = dept.a0",
       "SELECT * FROM emp, dept WHERE emp.a1 = dept.a0"},
      {"SELECT emp.a0 FROM emp WHERE emp.a1 IN (SELECT dept.a0 FROM dept)",
       "SELECT emp.a0 FROM emp WHERE emp.a1 NOT IN "
       "(SELECT dept.a0 FROM dept)"},
  };
  for (const auto& t : twins) {
    StatusOr<std::string> a = NormalizeSql(t[0], f.catalog);
    StatusOr<std::string> b = NormalizeSql(t[1], f.catalog);
    ASSERT_TRUE(a.ok() && b.ok()) << t[0];
    EXPECT_NE(*a, *b) << t[0];
  }
}

TEST(SqlNormalize, LexErrorsPropagate) {
  // NormalizeSql and ParseSql share one scanner, so a byte that starts no
  // token gives the same status from both, wherever it sits.
  Fixture f;
  const struct {
    std::string sql;
    std::string character;
    std::string position;
  } cases[] = {
      {"\x01SELECT * FROM emp", "\x01", "0"},
      {"SELECT * FROM emp WHERE emp.a1 # 5", "#", "31"},
      {"SELECT * FROM emp;", ";", "17"},
      {std::string("SELECT * FROM emp\0", 18), std::string(1, '\0'), "17"},
  };
  for (const auto& c : cases) {
    StatusOr<std::string> normalized = NormalizeSql(c.sql, f.catalog);
    StatusOr<ParsedQuery> parsed = f.Parse(c.sql);
    ASSERT_FALSE(normalized.ok()) << c.sql;
    ASSERT_FALSE(parsed.ok()) << c.sql;
    const Status& n = normalized.status();
    const Status& p = parsed.status();
    EXPECT_EQ(n.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(n.message(),
              "unexpected character '" + c.character + "' in SQL");
    EXPECT_EQ(n.details(), p.details()) << c.sql;
    EXPECT_EQ(n.message(), p.message()) << c.sql;
    EXPECT_EQ(n.code(), p.code());
    ASSERT_NE(n.FindDetail("character"), nullptr);
    EXPECT_EQ(*n.FindDetail("character"), c.character);
    ASSERT_NE(n.FindDetail("position"), nullptr);
    EXPECT_EQ(*n.FindDetail("position"), c.position) << c.sql;
  }
}

TEST(SqlNormalize, ScannerEdgeSpellings) {
  // Token boundaries the scanner must find with no space between tokens:
  // two-byte comparisons, a minus sign that belongs to a number, digits
  // running into letters, qualified names, and every white-space byte.
  Fixture f;
  const std::pair<const char*, const char*> cases[] = {
      {"a<=b", "a <= b"},
      {"x>=-5", "x >= -5"},
      {"a<b>c=d", "a < b > c = d"},
      {"a<", "a <"},
      {"5-3", "5 -3"},
      {"12abc", "12 abc"},
      {"emp.a1", "emp.a1"},
      {"_t.a_1x", "_t.a_1x"},
      {"select\tfrom\r\nwhere\v\fand", "SELECT FROM WHERE AND"},
      {"count(*),(emp.a1)", "COUNT ( * ) , ( emp.a1 )"},
      {"  ", ""},
  };
  for (const auto& [sql, want] : cases) {
    StatusOr<std::string> got = NormalizeSql(sql, f.catalog);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(*got, want) << sql;
  }
  // A minus sign not followed by a digit starts no token.
  StatusOr<std::string> minus = NormalizeSql("a - 5", f.catalog);
  ASSERT_FALSE(minus.ok());
  EXPECT_EQ(*minus.status().FindDetail("position"), "2");
}

TEST(SqlNormalize, ByteClassesMatchCType) {
  // The scanner classifies bytes from its own table; every byte must fall
  // where <cctype> puts it in the "C" locale, alone and after a letter.
  Fixture f;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const unsigned char u = static_cast<unsigned char>(b);
    const bool space = std::isspace(u);
    const bool ident = std::isalnum(u) || c == '_';
    const bool punct = c != '\0' && std::strchr(",*()=<>", c) != nullptr;
    StatusOr<std::string> alone = NormalizeSql(std::string(1, c), f.catalog);
    StatusOr<std::string> after = NormalizeSql(std::string("a") + c, f.catalog);
    if (space) {
      EXPECT_EQ(alone.value(), "") << b;
      EXPECT_EQ(after.value(), "a") << b;
    } else if (ident || punct) {
      EXPECT_EQ(alone.value(), std::string(1, c)) << b;
      EXPECT_EQ(after.value(), ident ? "a" + std::string(1, c)
                                     : "a " + std::string(1, c))
          << b;
    } else if (c == '.') {
      EXPECT_FALSE(alone.ok());
      EXPECT_EQ(after.value(), "a.");
    } else {
      EXPECT_FALSE(alone.ok()) << b;
      EXPECT_FALSE(after.ok()) << b;
    }
  }
}

TEST(SqlNormalize, KeywordSpelledAttributeKeepsItsCase) {
  // An attribute may be named like a keyword. Its lower-case spelling is
  // the catalog name and stays; any other spelling is the keyword.
  Fixture f;
  RelationInfo t;
  t.name = f.catalog.symbols().Intern("t");
  t.cardinality = 10;
  t.attributes.push_back({f.catalog.symbols().Intern("order"), 10});
  ASSERT_TRUE(f.catalog.AddRelation(std::move(t)).ok());
  f.model = std::make_unique<RelModel>(f.catalog);

  const char* sql = "select order from t Order By order";
  StatusOr<std::string> got = NormalizeSql(sql, f.catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "SELECT order FROM t ORDER BY order");
  StatusOr<ParsedQuery> a = f.Parse(sql);
  StatusOr<ParsedQuery> b = f.Parse(*got);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(f.Render(*a), f.Render(*b));
  EXPECT_EQ(a->required->ToString(), b->required->ToString());
}

// --- signature soundness: equal signatures parse identically -------------

/// Re-spells `sql` with seeded keyword case and whitespace: every whitespace
/// run becomes a random gap, and every all-upper-case keyword gets a random
/// case per letter. Identifiers keep their spelling.
std::string Respell(const std::string& sql, Rng& rng) {
  static constexpr std::string_view kKeywords[] = {
      "SELECT", "DISTINCT", "COUNT", "FROM", "WHERE", "AND",    "GROUP",
      "ORDER",  "BY",       "LEFT",  "OUTER", "JOIN", "ON",     "IN",
      "EXISTS", "NOT",      "HAVING",
  };
  static constexpr const char* kGaps[] = {" ", "  ", "\t", "\n ", " \t "};
  auto word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  };
  std::string out = rng.NextBool() ? " " : "";
  size_t i = 0;
  while (i < sql.size()) {
    if (sql[i] == ' ') {
      while (i < sql.size() && sql[i] == ' ') ++i;
      out += kGaps[rng.Uniform(std::size(kGaps))];
    } else if (word_char(sql[i])) {
      size_t j = i;
      while (j < sql.size() && word_char(sql[j])) ++j;
      std::string word = sql.substr(i, j - i);
      for (std::string_view kw : kKeywords) {
        if (word != kw) continue;
        for (char& c : word) {
          if (rng.NextBool()) c = static_cast<char>(std::tolower(c));
        }
      }
      out += word;
      i = j;
    } else {
      out += sql[i++];
    }
  }
  if (rng.NextBool()) out += '\t';
  return out;
}

/// Renders a generated select-join (query_gen.h) as SQL: its relations, its
/// join and selection predicates, and ORDER BY for a sorted requirement.
std::string GridSql(const Workload& w) {
  const RelOps& ops = w.model->ops();
  const SymbolTable& symbols = w.catalog->symbols();
  std::vector<std::string> relations, conjuncts;
  auto walk = [&](auto& self, const Expr& e) -> void {
    if (e.op() == ops.get) {
      relations.push_back(symbols.Name(
          static_cast<const GetArg&>(*e.arg()).relation()));
    } else if (e.op() == ops.select) {
      conjuncts.push_back(e.arg()->ToString());
    } else {
      VOLCANO_CHECK(e.op() == ops.join);
      const auto& join = static_cast<const JoinArg&>(*e.arg());
      conjuncts.push_back(symbols.Name(join.left_attr()) + " = " +
                          symbols.Name(join.right_attr()));
    }
    for (const ExprPtr& in : e.inputs()) self(self, *in);
  };
  walk(walk, *w.query);
  std::string sql = "SELECT * FROM ";
  for (size_t i = 0; i < relations.size(); ++i) {
    sql += (i ? ", " : "") + relations[i];
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sql += (i ? " AND " : " WHERE ") + conjuncts[i];
  }
  const SortOrder& order =
      static_cast<const RelPhysProps&>(*w.required).order();
  if (!order.empty()) sql += " ORDER BY " + symbols.Name(order.attrs[0]);
  return sql;
}

/// Groups `texts` by signature and requires every group to parse alike:
/// the same algebra and required properties, or the same error. Returns the
/// number of groups that held two or more distinct texts.
int ExpectEqualSignaturesParseAlike(const std::vector<std::string>& texts,
                                    Catalog& catalog, const RelModel& model) {
  std::map<std::string, std::vector<std::string>> groups;
  for (const std::string& text : texts) {
    StatusOr<std::string> sig = NormalizeSql(text, catalog);
    if (sig.ok()) groups[*sig].push_back(text);
  }
  auto render = [&](const std::string& text) {
    StatusOr<ParsedQuery> q = ParseSql(text, model, catalog.symbols());
    if (!q.ok()) return "error: " + q.status().ToString();
    return model.ExprToString(*q->expr) + " | " + q->required->ToString();
  };
  int shared = 0;
  for (const auto& [sig, members] : groups) {
    std::string want = render(members[0]);
    for (const std::string& text : members) {
      EXPECT_EQ(render(text), want) << "signature: " << sig << "\ntext: "
                                    << text << "\nvs: " << members[0];
      if (text != members[0]) ++shared;
    }
  }
  return shared;
}

// The plan cache answers a hit from the signature alone, without a parse
// (src/serve/server.cc), so NormalizeSql must never map two texts that
// parse differently to one signature.
TEST(SqlNormalize, EqualSignaturesParseIdentically) {
  constexpr int kSpellings = 8;
  Rng rng(15);

  TpchWorkload tpch = MakeTpchWorkload();
  std::vector<std::string> texts;
  for (const TpchQuery& q : tpch.queries) {
    ASSERT_TRUE(ParseSql(q.sql, *tpch.model, tpch.catalog->symbols()).ok())
        << q.name;
    StatusOr<std::string> want = NormalizeSql(q.sql, *tpch.catalog);
    ASSERT_TRUE(want.ok()) << q.name;
    texts.push_back(q.sql);
    for (int k = 0; k < kSpellings; ++k) {
      texts.push_back(Respell(q.sql, rng));
      EXPECT_EQ(NormalizeSql(texts.back(), *tpch.catalog).value(), *want)
          << texts.back();
    }
  }
  EXPECT_GT(ExpectEqualSignaturesParseAlike(texts, *tpch.catalog, *tpch.model),
            0);

  // The 54-query grid of plan_digest: chain joins of 2-10 relations, seeds
  // 1-3, with and without ORDER BY, each on its own catalog.
  int grid = 0;
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        WorkloadOptions wopts;
        wopts.num_relations = n;
        wopts.join_graph = WorkloadOptions::JoinGraph::kChain;
        wopts.hub_attr_prob = 0.25;
        wopts.sorted_base_prob = 0.5;
        wopts.order_by_prob = order_by ? 1.0 : 0.0;
        Workload w = GenerateWorkload(wopts, seed);
        std::string sql = GridSql(w);
        ASSERT_TRUE(ParseSql(sql, *w.model, w.catalog->symbols()).ok())
            << sql;
        std::vector<std::string> spellings{sql};
        for (int k = 0; k < kSpellings; ++k) {
          spellings.push_back(Respell(sql, rng));
        }
        EXPECT_GT(ExpectEqualSignaturesParseAlike(spellings, *w.catalog,
                                                  *w.model),
                  0)
            << sql;
        ++grid;
      }
    }
  }
  EXPECT_EQ(grid, 54);

  // Relations named like keywords: a spelling that names a catalog object
  // keeps its case in the signature, so folding can never alias it.
  Catalog catalog;
  VOLCANO_CHECK(catalog.AddRelation("from", 100, 10, 2).ok());
  VOLCANO_CHECK(catalog.AddRelation("select", 50, 10, 2).ok());
  RelModel model(catalog);
  const char* const kKeywordNames[] = {
      "SELECT * FROM from",
      "SELECT * FROM select",
      "SELECT * FROM from WHERE from.a0 < 7",
      "SELECT * FROM from, select WHERE from.a0 = select.a1",
      "SELECT * FROM select, from WHERE select.a1 = from.a0 "
      "ORDER BY from.a0",
      "SELECT from.a1, COUNT(*) FROM from GROUP BY from.a1",
      "SELECT DISTINCT select.a0 FROM select",
  };
  texts.clear();
  for (const char* sql : kKeywordNames) {
    texts.push_back(sql);
    for (int k = 0; k < kSpellings; ++k) texts.push_back(Respell(sql, rng));
  }
  // Also the texts with every keyword-named identifier folded too: those
  // must land in other groups, or parse alike where they do not.
  for (const char* sql : kKeywordNames) {
    std::string upper = sql;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    texts.push_back(upper);
  }
  EXPECT_GT(ExpectEqualSignaturesParseAlike(texts, catalog, model), 0);
}

TEST(SqlEndToEnd, ParseOptimizeExecute) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT * FROM emp, dept "
      "WHERE emp.a1 = dept.a0 AND dept.a1 < 3 ORDER BY emp.a0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  Optimizer opt(*f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q->expr, q->required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE((*plan)->props()->Covers(*q->required));

  exec::Database db = exec::GenerateDatabase(f.catalog, 61);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, *f.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*q->expr, *f.model, db);
  exec::Schema gs = exec::PlanSchema(**plan, *f.model, db);
  exec::Schema ws = exec::LogicalSchema(*q->expr, *f.model, db);
  EXPECT_TRUE(
      exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want));
}

TEST(SqlEndToEnd, GroupByQueryRuns) {
  Fixture f;
  StatusOr<ParsedQuery> q = f.Parse(
      "SELECT emp.a2, COUNT(*) FROM emp GROUP BY emp.a2 ORDER BY emp.a2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Optimizer opt(*f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q->expr, q->required);
  ASSERT_TRUE(plan.ok());

  exec::Database db = exec::GenerateDatabase(f.catalog, 67);
  std::vector<exec::Row> rows = exec::ExecutePlan(**plan, *f.model, db);
  EXPECT_LE(rows.size(), 10u);  // at most distinct(emp.a2) groups
  EXPECT_TRUE(exec::IsSortedBy(rows, {0}));
  int64_t total = 0;
  for (const auto& row : rows) total += row[1];
  EXPECT_EQ(total, 500);
}

}  // namespace
}  // namespace volcano::rel
