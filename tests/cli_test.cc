// vopt exit-code hygiene, asserted against the real binary (path injected
// by the build as VOPT_PATH). The contract, documented in tools/vopt.cc:
//   0 success | 2 usage | 3 parse/semantic | 4 budget trip (--strict)
//   5 internal error
// Serve mode must exit 0 after a clean drain regardless of request-level
// failures.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

// Runs `vopt <args>` with stdout/stderr discarded; returns the exit code.
int RunVopt(const std::string& args) {
  std::string cmd = std::string(VOPT_PATH) + " " + args + " >/dev/null 2>&1";
  int rc = std::system(cmd.c_str());
#ifdef _WIN32
  return rc;
#else
  return WEXITSTATUS(rc);
#endif
}

// Runs `sh -c 'printf <input> | vopt <args>'`; returns the exit code.
int RunVoptWithInput(const std::string& input, const std::string& args) {
  std::string cmd = "printf '" + input + "' | " + std::string(VOPT_PATH) +
                    " " + args + " >/dev/null 2>&1";
  int rc = std::system(cmd.c_str());
#ifdef _WIN32
  return rc;
#else
  return WEXITSTATUS(rc);
#endif
}

TEST(Cli, SuccessIsZero) {
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp\""), 0);
}

TEST(Cli, UsageErrorsAreTwo) {
  EXPECT_EQ(RunVopt(""), 2);                          // no SQL
  EXPECT_EQ(RunVopt("--no-such-flag \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--strict --fallback \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--engine warp \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("serve --no-such-flag"), 2);
  // Removed flags: a script that still passes one gets a usage error, not
  // a silent serial run.
  EXPECT_EQ(RunVopt("--workers 4 \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--parallel-mode fast \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("serve --search-workers 2"), 2);
}

TEST(Cli, ParseAndSemanticErrorsAreThree) {
  EXPECT_EQ(RunVopt("\"SELEC * FROM emp\""), 3);      // syntax
  EXPECT_EQ(RunVopt("\"SELECT * FROM nowhere\""), 3); // unknown table
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp WHERE emp.nope = 1\""), 3);
  EXPECT_EQ(RunVopt("--catalog /no/such/file \"SELECT * FROM emp\""), 3);
}

TEST(Cli, UnsupportedDecisionSupportSqlIsThree) {
  // RIGHT/FULL joins are structured rejections, not crashes.
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp RIGHT JOIN dept ON "
                    "emp.a1 = dept.a0\""),
            3);
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp FULL JOIN dept ON "
                    "emp.a1 = dept.a0\""),
            3);
  // Subquery nesting beyond the supported depth of 3.
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp WHERE EXISTS (SELECT * FROM dept "
                    "WHERE dept.a0 = emp.a1 AND EXISTS (SELECT * FROM emp "
                    "WHERE emp.a1 = dept.a1 AND EXISTS (SELECT * FROM dept "
                    "WHERE dept.a0 = emp.a2 AND EXISTS (SELECT * FROM emp "
                    "WHERE emp.a1 = dept.a1))))\""),
            3);
  // Shape rules: correlated IN, uncorrelated EXISTS, HAVING w/o GROUP BY.
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp WHERE emp.a0 IN (SELECT dept.a0 "
                    "FROM dept WHERE dept.a1 = emp.a2)\""),
            3);
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp WHERE EXISTS (SELECT * FROM dept "
                    "WHERE dept.a1 < 3)\""),
            3);
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp HAVING COUNT(*) > 3\""), 3);
  // The supported surface still works (and exits 0).
  EXPECT_EQ(RunVopt("\"SELECT * FROM emp LEFT JOIN dept ON "
                    "emp.a1 = dept.a0\""),
            0);
  EXPECT_EQ(RunVopt("\"SELECT DISTINCT emp.a1 FROM emp\""), 0);
}

TEST(Cli, StrictBudgetTripIsFour) {
  EXPECT_EQ(RunVopt("--strict --max-calls 1 "
                    "\"SELECT * FROM emp, dept WHERE emp.a1 = dept.a0 "
                    "ORDER BY emp.a1\""),
            4);
  // The same budget without --strict degrades and succeeds.
  EXPECT_EQ(RunVopt("--max-calls 1 "
                    "\"SELECT * FROM emp, dept WHERE emp.a1 = dept.a0 "
                    "ORDER BY emp.a1\""),
            0);
}

TEST(Cli, ServeModeExitsZeroDespiteRequestErrors) {
  EXPECT_EQ(RunVoptWithInput(
                "SELECT * FROM emp\\nSELEC garbage\\n!quit\\n", "serve"),
            0);
}

}  // namespace
