/**
 * @file
 * Unit tests for the oma_lint determinism-contract rules.
 *
 * Each rule is driven against inline fixture snippets: a positive
 * case that must fire, a suppressed case that must stay silent, and a
 * clean case that must not fire. An integration test asserts the live
 * tree lints clean, so a hazard introduced anywhere in src/, tests/
 * or tools/ fails this suite as well as the CI lint job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "lint/lint.hh"
#include "tests/api/json_path.hh"

namespace oma::lint
{
namespace
{

/** Count findings for @p rule in @p report. */
std::size_t
countRule(const LintReport &report, const std::string &rule)
{
    return std::size_t(std::count_if(
        report.findings.begin(), report.findings.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------- //
// no-wallclock
// ---------------------------------------------------------------- //

TEST(LintNoWallclock, FlagsWallclockCalls)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f() {
    auto t = time(nullptr);
}
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 1u);
}

TEST(LintNoWallclock, FlagsSystemClockAndRandomDevice)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <chrono>
#include <random>
auto now() { return std::chrono::system_clock::now(); }
unsigned seed() { return std::random_device{}(); }
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 2u);
}

TEST(LintNoWallclock, SuppressionSilences)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f() {
    // oma-lint: allow(no-wallclock): boot banner only, not results
    auto t = time(nullptr);
}
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 0u);
}

TEST(LintNoWallclock, CleanCodePasses)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include "support/clock.hh"
void f() {
    auto t0 = oma::Clock::nowNs();   // the sanctioned shim
    auto elapsed_time = interval();  // 'time' inside an identifier
    auto d = wait_time(3);
}
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 0u);
}

TEST(LintNoWallclock, FlagsSteadyClockOutsideTheShim)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 1u);
}

TEST(LintNoWallclock, ClockShimIsTheOnlyNewExemptFile)
{
    // support/clock.hh is the single sanctioned wall-clock site
    // added alongside support/rng.hh; any sibling or copycat path
    // must still be flagged.
    const char *snippet = R"(
#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
std::uint64_t g() { return clock_gettime(0, nullptr); }
)";
    EXPECT_EQ(countRule(lintBuffer("src/support/clock.hh", snippet),
                        "no-wallclock"),
              0u);
    EXPECT_EQ(countRule(lintBuffer("src/support/clock2.hh", snippet),
                        "no-wallclock"),
              2u);
    EXPECT_EQ(countRule(lintBuffer("src/obs/metrics.cc", snippet),
                        "no-wallclock"),
              2u);
}

TEST(LintNoWallclock, BenchAndRngAreExempt)
{
    const char *snippet = R"(
void f() { auto t = time(nullptr); }
)";
    EXPECT_EQ(countRule(lintBuffer("bench/bench_speed.cc", snippet),
                        "no-wallclock"),
              0u);
    EXPECT_EQ(countRule(lintBuffer("src/support/rng.hh", snippet),
                        "no-wallclock"),
              0u);
    EXPECT_EQ(countRule(lintBuffer("src/core/foo.cc", snippet),
                        "no-wallclock"),
              1u);
}

TEST(LintNoWallclock, FlagsStdRandomEnginesOutsideTheShim)
{
    // The std engines hide their seed behind a default constructor
    // and the std distributions are implementation-defined; the only
    // sanctioned wrapper is oma::MtRng (support/mt_rng.hh).
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <random>
std::mt19937 a;
std::mt19937_64 b{42};
std::default_random_engine c;
std::minstd_rand d;
)");
    EXPECT_EQ(countRule(report, "no-wallclock"), 4u);
}

TEST(LintNoWallclock, MtRngShimIsTheOnlyEngineExemptFile)
{
    const char *snippet = R"(
#include <random>
class R { std::mt19937_64 _engine; };
)";
    EXPECT_EQ(countRule(lintBuffer("src/support/mt_rng.hh", snippet),
                        "no-wallclock"),
              0u);
    EXPECT_EQ(countRule(lintBuffer("src/support/mt_rng2.hh", snippet),
                        "no-wallclock"),
              1u);
    EXPECT_EQ(countRule(lintBuffer("src/core/search_strategy.cc",
                                   snippet),
                        "no-wallclock"),
              1u);
}

// ---------------------------------------------------------------- //
// ordered-results
// ---------------------------------------------------------------- //

TEST(LintOrderedResults, FlagsRangeForOverUnordered)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <unordered_map>
#include <cstdint>
void f() {
    std::unordered_map<std::uint64_t, int> counts;
    for (const auto &kv : counts)
        emit(kv);
}
)");
    // One for the iteration; the declaration check is header-only.
    EXPECT_EQ(countRule(report, "ordered-results"), 1u);
}

TEST(LintOrderedResults, FlagsExplicitIteratorWalk)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <unordered_set>
void f() {
    std::unordered_set<int> seen;
    auto it = seen.begin();
}
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 1u);
}

TEST(LintOrderedResults, HeaderDeclarationNeedsInvariant)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
#include <unordered_set>
struct S {
    std::unordered_set<int> _touched;
};
#endif
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 1u);
}

TEST(LintOrderedResults, ReasonedSuppressionSilencesDeclaration)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
#include <unordered_set>
struct S {
    // oma-lint: allow(ordered-results): membership only, no iteration
    std::unordered_set<int> _touched;
};
#endif
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 0u);
}

TEST(LintOrderedResults, ReasonlessSuppressionDoesNotCount)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
#include <unordered_set>
struct S {
    // oma-lint: allow(ordered-results)
    std::unordered_set<int> _touched;
};
#endif
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 1u);
}

TEST(LintOrderedResults, MembershipTestIsClean)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <unordered_set>
bool f() {
    std::unordered_set<int> seen;
    return seen.find(3) != seen.end();
}
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 0u);
}

TEST(LintOrderedResults, OrderedContainersAreClean)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <map>
void f() {
    std::map<int, int> counts;
    for (const auto &kv : counts)
        emit(kv);
}
)");
    EXPECT_EQ(countRule(report, "ordered-results"), 0u);
}

// ---------------------------------------------------------------- //
// header-guard
// ---------------------------------------------------------------- //

TEST(LintHeaderGuard, FlagsUnguardedHeader)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#include <cstdint>
inline int f() { return 1; }
)");
    EXPECT_EQ(countRule(report, "header-guard"), 1u);
}

TEST(LintHeaderGuard, SuppressionSilences)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
// oma-lint: allow-file(header-guard): generated single-include TU
#include <cstdint>
inline int f() { return 1; }
)");
    EXPECT_EQ(countRule(report, "header-guard"), 0u);
}

TEST(LintHeaderGuard, GuardedAndPragmaOnceAreClean)
{
    EXPECT_EQ(countRule(lintBuffer("src/core/foo.hh", R"(
#ifndef OMA_CORE_FOO_HH
#define OMA_CORE_FOO_HH
inline int f() { return 1; }
#endif
)"),
                        "header-guard"),
              0u);
    EXPECT_EQ(countRule(lintBuffer("src/core/foo.hh", R"(
#pragma once
inline int f() { return 1; }
)"),
                        "header-guard"),
              0u);
    // Sources need no guard.
    EXPECT_EQ(countRule(lintBuffer("src/core/foo.cc", "int x;\n"),
                        "header-guard"),
              0u);
}

// ---------------------------------------------------------------- //
// include-hygiene
// ---------------------------------------------------------------- //

TEST(LintIncludeHygiene, FlagsParentRelativeInclude)
{
    const auto report = lintBuffer("src/core/foo.cc",
                                   "#include \"../cache/cache.hh\"\n");
    EXPECT_EQ(countRule(report, "include-hygiene"), 1u);
}

TEST(LintIncludeHygiene, FlagsNamespaceScopeUsingInHeader)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
using namespace std;
namespace oma {
using namespace std;
}
#endif
)");
    EXPECT_EQ(countRule(report, "include-hygiene"), 2u);
}

TEST(LintIncludeHygiene, SuppressionSilences)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
// oma-lint: allow(include-hygiene)
#include "../cache/cache.hh"
)");
    EXPECT_EQ(countRule(report, "include-hygiene"), 0u);
}

TEST(LintIncludeHygiene, FunctionLocalUsingAndCleanIncludesPass)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
#include "cache/cache.hh"
#include <vector>
inline void f()
{
    using namespace std;
}
#endif
)");
    EXPECT_EQ(countRule(report, "include-hygiene"), 0u);
}

// ---------------------------------------------------------------- //
// cast-audit
// ---------------------------------------------------------------- //

TEST(LintCastAudit, FlagsUndocumentedCasts)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f(const char *p, int *q) {
    auto a = reinterpret_cast<const int *>(p);
    auto b = const_cast<int *>(q);
}
)");
    EXPECT_EQ(countRule(report, "cast-audit"), 2u);
}

TEST(LintCastAudit, InvariantStatingSuppressionSilences)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f(const unsigned char *p) {
    // oma-lint: allow(cast-audit): p points at a live int per ABI
    auto a = reinterpret_cast<const int *>(p);
}
)");
    EXPECT_EQ(countRule(report, "cast-audit"), 0u);
}

TEST(LintCastAudit, ReasonlessSuppressionDoesNotCount)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f(const unsigned char *p) {
    // oma-lint: allow(cast-audit)
    auto a = reinterpret_cast<const int *>(p);
}
)");
    EXPECT_EQ(countRule(report, "cast-audit"), 1u);
}

TEST(LintCastAudit, StaticCastIsClean)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
int f(double d) { return static_cast<int>(d); }
)");
    EXPECT_EQ(countRule(report, "cast-audit"), 0u);
}

// ---------------------------------------------------------------- //
// lock-audit
// ---------------------------------------------------------------- //

TEST(LintLockAudit, FlagsRawStdSyncTypes)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include <mutex>
struct S {
    std::mutex m;
    std::condition_variable cv;
    std::shared_mutex rw;
};
)");
    EXPECT_EQ(countRule(report, "lock-audit"), 3u);
}

TEST(LintLockAudit, FlagsNakedLockCalls)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f(Mutex &m, Mutex *p) {
    m.lock();
    m.unlock();
    bool ok = p->try_lock();
}
)");
    ASSERT_EQ(countRule(report, "lock-audit"), 3u);
    // Each finding carries a concrete remedy.
    for (const Finding &f : report.findings) {
        if (f.rule == "lock-audit") {
            EXPECT_NE(f.fixit.find("LockGuard"), std::string::npos);
        }
    }
}

TEST(LintLockAudit, SyncShimIsExempt)
{
    const auto report = lintBuffer("src/support/sync.hh", R"(
class Mutex {
    std::mutex _raw;
};
)");
    EXPECT_EQ(countRule(report, "lock-audit"), 0u);
}

TEST(LintLockAudit, OmaPrimitivesAreClean)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
#include "support/sync.hh"
void f(oma::Mutex &m, oma::CondVar &cv) {
    oma::LockGuard lock(m);
    cv.notifyOne();
}
)");
    EXPECT_EQ(countRule(report, "lock-audit"), 0u);
}

TEST(LintLockAudit, SuppressionRequiresReason)
{
    const auto reasonless = lintBuffer("src/core/foo.cc", R"(
void f(Mutex &m) {
    // oma-lint: allow(lock-audit)
    m.lock();
}
)");
    EXPECT_EQ(countRule(reasonless, "lock-audit"), 1u);
    const auto reasoned = lintBuffer("src/core/foo.cc", R"(
void f(Mutex &m) {
    // oma-lint: allow(lock-audit): adapting to a C callback ABI
    m.lock();
}
)");
    EXPECT_EQ(countRule(reasoned, "lock-audit"), 0u);
}

// ---------------------------------------------------------------- //
// guarded-member
// ---------------------------------------------------------------- //

TEST(LintGuardedMember, FlagsUnannotatedMemberOfMutexOwningClass)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
class Counter {
  private:
    mutable oma::Mutex _mutex;
    int _count = 0;
};
#endif
)");
    ASSERT_EQ(countRule(report, "guarded-member"), 1u);
    for (const Finding &f : report.findings) {
        if (f.rule == "guarded-member") {
            EXPECT_NE(f.message.find("'_count'"), std::string::npos);
            EXPECT_NE(f.fixit.find("OMA_GUARDED_BY"),
                      std::string::npos);
        }
    }
}

TEST(LintGuardedMember, AnnotatedAndImmutableMembersPass)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
class Counter {
  public:
    int value() const;
  private:
    mutable oma::Mutex _mutex;
    oma::CondVar _wake;
    int _count OMA_GUARDED_BY(_mutex) = 0;
    const std::string _name;
    static int s_instances;
};
#endif
)");
    EXPECT_EQ(countRule(report, "guarded-member"), 0u);
}

TEST(LintGuardedMember, ClassWithoutMutexIsIgnored)
{
    const auto report = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
class Plain {
    int _count = 0;
    double _mean = 0.0;
};
#endif
)");
    EXPECT_EQ(countRule(report, "guarded-member"), 0u);
}

TEST(LintGuardedMember, SuppressionRequiresReason)
{
    const auto reasonless = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
class Counter {
    oma::Mutex _mutex;
    // oma-lint: allow(guarded-member)
    int _count = 0;
};
#endif
)");
    EXPECT_EQ(countRule(reasonless, "guarded-member"), 1u);
    const auto reasoned = lintBuffer("src/core/foo.hh", R"(
#ifndef X
#define X
class Counter {
    oma::Mutex _mutex;
    // oma-lint: allow(guarded-member): written once before threads
    int _count = 0;
};
#endif
)");
    EXPECT_EQ(countRule(reasoned, "guarded-member"), 0u);
}

// ---------------------------------------------------------------- //
// shared-state
// ---------------------------------------------------------------- //

TEST(LintSharedState, FlagsMutableStaticLocal)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
int f() {
    static int calls = 0;
    return ++calls;
}
)");
    ASSERT_EQ(countRule(report, "shared-state"), 1u);
    for (const Finding &f : report.findings) {
        if (f.rule == "shared-state") {
            EXPECT_NE(f.fixit.find("thread_local"),
                      std::string::npos);
        }
    }
}

TEST(LintSharedState, FlagsNamespaceScopeGlobal)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
namespace oma {
int g_count = 0;
}
)");
    EXPECT_EQ(countRule(report, "shared-state"), 1u);
}

TEST(LintSharedState, ConstantsAndThreadLocalPass)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
namespace oma {
constexpr int kLimit = 8;
const char *kName = "x";
thread_local bool t_inside = false;
int f() {
    static const int table[] = {1, 2, 3};
    return table[0] + kLimit;
}
}
)");
    EXPECT_EQ(countRule(report, "shared-state"), 0u);
}

TEST(LintSharedState, SignatureContinuationIsNotADeclaration)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
namespace oma {
void drain(int source,
           unsigned limit = 0);
}
)");
    EXPECT_EQ(countRule(report, "shared-state"), 0u);
}

TEST(LintSharedState, BenchDriversAreExempt)
{
    const auto report = lintBuffer("bench/bench_foo.cc", R"(
static double serial_seconds = 0.0;
)");
    EXPECT_EQ(countRule(report, "shared-state"), 0u);
}

TEST(LintSharedState, SuppressionRequiresReason)
{
    const auto reasonless = lintBuffer("src/core/foo.cc", R"(
void f() {
    // oma-lint: allow(shared-state)
    static int nonce = 0;
}
)");
    EXPECT_EQ(countRule(reasonless, "shared-state"), 1u);
    const auto reasoned = lintBuffer("src/core/foo.cc", R"(
void f() {
    // oma-lint: allow(shared-state): atomic nonce, never in results
    static int nonce = 0;
}
)");
    EXPECT_EQ(countRule(reasoned, "shared-state"), 0u);
}

// ---------------------------------------------------------------- //
// scanner behaviour shared by all rules
// ---------------------------------------------------------------- //

TEST(LintScanner, CommentsAndLiteralsNeverFire)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
// reinterpret_cast in a comment, and time(nullptr) too
/* const_cast<int *>(p) inside a block comment */
const char *s = "reinterpret_cast<const int *>(p); time(nullptr);";
const char *r = R"x(const_cast<int *>(q))x";
)");
    EXPECT_TRUE(report.clean());
}

TEST(LintScanner, FixitHintsArePopulated)
{
    const auto report = lintBuffer(
        "src/core/foo.cc", "void f(int *q) { const_cast<int *>(q); }\n");
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_FALSE(report.findings[0].fixit.empty());
}

TEST(LintScanner, RuleRegistryIsComplete)
{
    std::vector<std::string> names;
    for (const auto &rule : makeDefaultRules())
        names.emplace_back(rule->name());
    const std::vector<std::string> expected = {
        "no-wallclock",   "ordered-results", "header-guard",
        "include-hygiene", "cast-audit",     "lock-audit",
        "guarded-member", "shared-state"};
    EXPECT_EQ(names, expected);
}

// ---------------------------------------------------------------- //
// SARIF output
// ---------------------------------------------------------------- //

TEST(LintSarif, EmitsValidSarifWithFindings)
{
    const auto report = lintBuffer("src/core/foo.cc", R"(
void f() {
    auto t = time(nullptr);
}
)");
    ASSERT_EQ(report.findings.size(), 1u);
    std::ostringstream os;
    printSarif(report, os);
    api::JsonValue json;
    std::string error;
    ASSERT_TRUE(api::parseJson(os.str(), json, error))
        << error << "\n" << os.str();
    EXPECT_EQ(api::jsonString(json, "version"), "2.1.0");
    EXPECT_EQ(api::jsonString(json, "runs.0.tool.driver.name"),
              "oma_lint");
    const api::JsonValue *results = api::jsonAt(json, "runs.0.results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->array.size(), 1u);
    EXPECT_EQ(api::jsonString(json, "runs.0.results.0.ruleId"),
              "no-wallclock");
    EXPECT_EQ(api::jsonString(json, "runs.0.results.0.level"), "error");
    EXPECT_EQ(api::jsonString(json, "runs.0.results.0.locations.0"
                                    ".physicalLocation.artifactLocation.uri"),
              "src/core/foo.cc");
    EXPECT_EQ(api::jsonNumber(json, "runs.0.results.0.locations.0"
                                    ".physicalLocation.region.startLine"),
              3.0);
    // The message carries the fixit hint.
    EXPECT_NE(api::jsonString(json, "runs.0.results.0.message.text")
                  .find("fix: "),
              std::string::npos);
}

TEST(LintSarif, DeclaresEveryRuleEvenWhenClean)
{
    const auto report = lintBuffer("src/core/foo.cc", "int x();\n");
    ASSERT_TRUE(report.clean());
    std::ostringstream os;
    printSarif(report, os);
    api::JsonValue json;
    std::string error;
    ASSERT_TRUE(api::parseJson(os.str(), json, error))
        << error << "\n" << os.str();
    // Every rule is declared, in registration order, ending with
    // shared-state.
    const auto rules = makeDefaultRules();
    const api::JsonValue *declared =
        api::jsonAt(json, "runs.0.tool.driver.rules");
    ASSERT_NE(declared, nullptr);
    ASSERT_EQ(declared->array.size(), rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(api::jsonString(declared->array[i], "id"),
                  rules[i]->name());
    }
    EXPECT_EQ(rules.back()->name(), "shared-state");
    const api::JsonValue *results = api::jsonAt(json, "runs.0.results");
    ASSERT_NE(results, nullptr);
    EXPECT_TRUE(results->array.empty());
}

// ---------------------------------------------------------------- //
// the live tree must lint clean
// ---------------------------------------------------------------- //

TEST(LintIntegration, LiveTreeIsClean)
{
    const std::string root = OMA_SOURCE_DIR;
    const LintReport report = lintPaths(
        {root + "/src", root + "/tests", root + "/tools",
         root + "/examples", root + "/bench"},
        root + "/src");
    for (const Finding &f : report.findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
    EXPECT_GT(report.filesScanned, 100u);
}

} // namespace
} // namespace oma::lint
