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
  EXPECT_EQ(RunVopt("serve --no-such-flag"), 2);
  // Removed flags: a script that still passes one gets a usage error, not
  // a silent serial run.
  EXPECT_EQ(RunVopt("--workers 4 \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--parallel-mode fast \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("serve --search-workers 2"), 2);
  EXPECT_EQ(RunVopt("--engine recursive \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--engine task \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--memo-byte-limit=1048576 \"SELECT * FROM emp\""), 2);
  EXPECT_EQ(RunVopt("--frontier-limit=64 \"SELECT * FROM emp\""), 2);
}

// Runs `vopt <args>` with stdout discarded; returns what it wrote to stderr.
std::string VoptStderr(const std::string& args) {
  std::string cmd = std::string(VOPT_PATH) + " " + args + " 2>&1 >/dev/null";
  std::string err;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return err;
  char buf[256];
  while (size_t n = std::fread(buf, 1, sizeof buf, pipe)) err.append(buf, n);
  pclose(pipe);
  return err;
}

TEST(Cli, MalformedNumericFlagsAreUsageErrors) {
  const std::string q = " \"SELECT * FROM emp, dept WHERE emp.a1 = dept.a0\"";
  // "1e6" used to parse as a memo cap of 1 and "abc" as "no deadline".
  EXPECT_EQ(RunVopt("--max-mexprs 1e6" + q), 2);
  EXPECT_EQ(RunVopt("--timeout-ms abc" + q), 2);
  EXPECT_EQ(RunVopt("--max-calls -1" + q), 2);
  EXPECT_EQ(RunVopt("--timeout-ms -5" + q), 2);
  EXPECT_EQ(RunVopt("--timeout-ms inf" + q), 2);
  EXPECT_EQ(RunVopt("--execute 7x" + q), 2);
  EXPECT_EQ(RunVopt("--join-threshold=" + q), 2);
  EXPECT_EQ(RunVopt("serve --max-mexprs 1e6 </dev/null"), 2);
  EXPECT_EQ(RunVopt("serve --timeout-ms abc </dev/null"), 2);
  EXPECT_EQ(RunVopt("serve --serve-workers 0 </dev/null"), 2);
  EXPECT_EQ(RunVopt("serve --cache-capacity 16k </dev/null"), 2);
  // Well-formed values in every spelling the flags document still run.
  EXPECT_EQ(RunVopt("--max-mexprs 1000000 --timeout-ms 2.5 --max-calls 0 "
                    "--execute 7" + q),
            0);
  EXPECT_EQ(RunVopt("serve --max-mexprs 1000 --timeout-ms 1e3 </dev/null"),
            0);
}

TEST(Cli, NumericFlagErrorNamesFlagAndValue) {
  EXPECT_NE(VoptStderr("--max-mexprs 1e6 \"SELECT * FROM emp\"")
                .find("'1e6' for --max-mexprs"),
            std::string::npos);
  EXPECT_NE(VoptStderr("serve --timeout-ms abc </dev/null")
                .find("'abc' for --timeout-ms"),
            std::string::npos);
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
