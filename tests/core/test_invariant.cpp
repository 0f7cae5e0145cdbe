// InvariantChecker unit tests: violation recording (cap, event index,
// report format) and the two-tier contract — per-event ledger checks,
// full scans audited every kAuditEvery runs and on audit(), and a ledger
// that drifts from its scan reported as "<name>/ledger-drift".
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/invariant.hpp"

namespace rattrap::core {
namespace {

using Detail = std::optional<std::string>;

TEST(InvariantChecker, RecordingCapKeepsCounting) {
  InvariantChecker checker;
  checker.set_max_recorded(3);
  checker.add_invariant("always", []() -> Detail { return "broken"; });
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(checker.run(i));
  EXPECT_EQ(checker.checks_run(), 5u);
  EXPECT_EQ(checker.total_violations(), 5u);
  ASSERT_EQ(checker.violations().size(), 3u);
  EXPECT_EQ(checker.violations().back().when, 2);
  EXPECT_FALSE(checker.ok());
}

TEST(InvariantChecker, EventIndexCountsEarlierRuns) {
  InvariantChecker checker;
  int run = 0;
  checker.add_invariant("third", [&run]() -> Detail {
    return run == 2 ? Detail("tripped") : std::nullopt;
  });
  for (; run < 4; ++run) checker.run(100 * run);
  ASSERT_NE(checker.first_violation(), nullptr);
  EXPECT_EQ(checker.first_violation()->event_index, 2u);
  EXPECT_EQ(checker.first_violation()->when, 200);
  EXPECT_EQ(checker.total_violations(), 1u);
}

TEST(InvariantChecker, ReportHasOneLinePerRecordedViolation) {
  InvariantChecker checker;
  checker.add_invariant("a", []() -> Detail { return "x=1"; });
  checker.add_invariant("b", []() -> Detail { return std::nullopt; });
  checker.add_invariant("c", []() -> Detail { return "y=2"; });
  checker.run(7);
  EXPECT_EQ(checker.report(), "7us a: x=1\n7us c: y=2\n");
  EXPECT_EQ(checker.invariant_count(), 3u);
}

TEST(InvariantChecker, ScansRunOnlyAtTheAuditCadence) {
  InvariantChecker checker;
  std::uint64_t scans = 0;
  checker.add_invariant(
      "counted", []() -> Detail { return std::nullopt; },
      [&scans]() -> Detail {
        ++scans;
        return std::nullopt;
      });
  for (std::uint64_t i = 1; i < InvariantChecker::kAuditEvery; ++i) {
    checker.run(0);
  }
  EXPECT_EQ(scans, 0u);
  EXPECT_EQ(checker.audits_run(), 0u);
  checker.run(0);  // the kAuditEvery-th run
  EXPECT_EQ(scans, 1u);
  EXPECT_EQ(checker.audits_run(), 1u);
  for (std::uint64_t i = 0; i < InvariantChecker::kAuditEvery; ++i) {
    checker.run(0);
  }
  EXPECT_EQ(scans, 2u);

  // audit() scans on demand and is not a run.
  const std::uint64_t runs = checker.checks_run();
  EXPECT_TRUE(checker.audit(0));
  EXPECT_EQ(scans, 3u);
  EXPECT_EQ(checker.audits_run(), 3u);
  EXPECT_EQ(checker.checks_run(), runs);

  // The differential tests' oracle mode: every run audits.
  checker.set_audit_every_run(true);
  checker.run(0);
  checker.run(0);
  EXPECT_EQ(scans, 5u);
  EXPECT_TRUE(checker.ok());
}

TEST(InvariantChecker, TrippedCheckRecordsTheScanDetail) {
  // Both tiers agree on the violation: the scan's fuller detail is what
  // the report shows, so it reads the same as a scan-only harness.
  InvariantChecker checker;
  checker.add_invariant(
      "pins", []() -> Detail { return "1 env mismatched"; },
      []() -> Detail { return "env 4 pins 2 sessions, 1 bound"; });
  EXPECT_FALSE(checker.run(5));
  ASSERT_NE(checker.first_violation(), nullptr);
  EXPECT_EQ(checker.first_violation()->name, "pins");
  EXPECT_EQ(checker.first_violation()->detail,
            "env 4 pins 2 sessions, 1 bound");
}

/// A toy component with a maintained ledger: `jobs` is the component's
/// own count, `ledger` the owner's incremental mirror of how many
/// `sessions` are computing, and the scan recounts them.
struct Toy {
  std::uint32_t jobs = 0;
  std::uint32_t ledger = 0;
  std::vector<bool> sessions;

  void start(std::size_t i) {
    sessions[i] = true;
    ++jobs;
    ++ledger;
  }

  void arm(InvariantChecker& checker) {
    checker.add_invariant(
        "jobs",
        [this]() -> Detail {
          if (ledger == jobs) return std::nullopt;
          return "ledger " + std::to_string(ledger);
        },
        [this]() -> Detail {
          std::uint32_t computing = 0;
          for (const bool s : sessions) computing += s ? 1 : 0;
          if (computing == jobs) return std::nullopt;
          return std::to_string(computing) + " computing, " +
                 std::to_string(jobs) + " jobs";
        });
  }
};

TEST(InvariantChecker, DoctoredLedgerReportsDrift) {
  Toy toy;
  toy.sessions.assign(4, false);
  InvariantChecker checker;
  toy.arm(checker);
  toy.start(1);
  toy.start(2);
  EXPECT_TRUE(checker.run(0));

  // A ledger that lost an update trips its check while the scan holds:
  // that is drift, not a violation of the invariant itself.
  --toy.ledger;
  EXPECT_FALSE(checker.run(1));
  ASSERT_NE(checker.first_violation(), nullptr);
  EXPECT_EQ(checker.first_violation()->name, "jobs/ledger-drift");
  EXPECT_NE(checker.first_violation()->detail.find("scan holds"),
            std::string::npos);
  ++toy.ledger;

  // A mutation the ledger never saw, made consistently in the component
  // and its mirror: only a scan can see it, so only an audit reports it.
  toy.sessions[3] = true;
  EXPECT_TRUE(checker.run(2));
  EXPECT_EQ(checker.total_violations(), 1u);
  EXPECT_FALSE(checker.audit(3));
  ASSERT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(checker.violations()[1].name, "jobs/ledger-drift");
  EXPECT_EQ(checker.violations()[1].detail,
            "ledger holds, scan reports (3 computing, 2 jobs)");
  EXPECT_EQ(checker.violations()[1].when, 3);
}

TEST(InvariantChecker, PeriodicAuditCatchesDriftWithoutAnExplicitCall) {
  Toy toy;
  toy.sessions.assign(2, false);
  InvariantChecker checker;
  toy.arm(checker);
  toy.sessions[0] = true;  // never reached the ledger
  for (std::uint64_t i = 1; i < InvariantChecker::kAuditEvery; ++i) {
    EXPECT_TRUE(checker.run(0));
  }
  EXPECT_FALSE(checker.run(0));
  ASSERT_NE(checker.first_violation(), nullptr);
  EXPECT_EQ(checker.first_violation()->name, "jobs/ledger-drift");
  EXPECT_EQ(checker.first_violation()->event_index,
            InvariantChecker::kAuditEvery - 1);
}

}  // namespace
}  // namespace rattrap::core
