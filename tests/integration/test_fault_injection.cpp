// Fault-injection integration: every fault class fires against the full
// Rattrap platform, every session either completes or is cleanly
// rejected, and the cross-component invariants hold after every event.
// Also the regression suite for the recovery machinery itself: crashed
// environments are retired from the Container DB immediately, recovery
// re-dispatches their sessions, and disabling recovery is *detected* by
// the invariant harness rather than silently tolerated.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

struct RunSetup {
  std::string plan;
  std::size_t count = 30;
  std::uint32_t devices = 6;
  std::uint64_t seed = 11;
  bool crash_recovery = true;
  bool audit_every_event = false;  ///< the checker's oracle mode
};

struct RunHandle {
  std::unique_ptr<Platform> platform;
  std::vector<RequestOutcome> outcomes;
};

RunHandle run_with_faults(const RunSetup& setup) {
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::lan_wifi(), setup.seed);
  const auto plan = sim::FaultPlan::parse(setup.plan);
  EXPECT_TRUE(plan.has_value()) << setup.plan;
  config.fault_plan = *plan;
  config.crash_recovery = setup.crash_recovery;
  RunHandle handle;
  handle.platform = std::make_unique<Platform>(std::move(config));
  handle.platform->invariants().set_audit_every_run(setup.audit_every_event);
  handle.outcomes = handle.platform->run(workloads::make_mixed_stream(
      setup.count / 4, setup.devices, 2 * sim::kSecond, setup.seed));
  return handle;
}

void expect_all_accounted(const RunHandle& handle) {
  for (const auto& outcome : handle.outcomes) {
    EXPECT_GT(outcome.response, 0) << "request " << outcome.request.sequence;
    EXPECT_FALSE(outcome.stranded)
        << "request " << outcome.request.sequence << " stranded";
  }
}

TEST(FaultInjectionTest, EveryFaultClassFiresAndInvariantsHold) {
  // One run per fault class, each with the probability cranked high
  // enough that the class must fire at least once on this seed.
  const struct {
    sim::FaultKind kind;
    const char* plan;
  } kCases[] = {
      {sim::FaultKind::kNetDrop, "net.drop:p=0.4"},
      {sim::FaultKind::kNetCorrupt, "net.corrupt:p=0.5"},
      {sim::FaultKind::kNetDelay, "net.delay:p=0.5,delay_ms=300"},
      {sim::FaultKind::kTmpfsWriteFail, "tmpfs.write_fail:p=0.8"},
      {sim::FaultKind::kDiskWriteFail,
       "tmpfs.write_fail:p=1;disk.write_fail:p=0.8"},
      {sim::FaultKind::kBinderFail, "binder.fail:p=0.5"},
      {sim::FaultKind::kDevNsTeardown, "devns.teardown:p=0.5"},
      {sim::FaultKind::kContainerCrash, "container.crash:p=0.3"},
      {sim::FaultKind::kContainerOom, "container.oom:p=0.3"},
      {sim::FaultKind::kCacheEvict, "cache.evict:p=0.8"},
  };
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.plan);
    const RunHandle handle = run_with_faults({test_case.plan});
    EXPECT_GT(handle.platform->fault_injector()->fired_count(test_case.kind),
              0u)
        << sim::to_string(test_case.kind) << " never fired";
    EXPECT_TRUE(handle.platform->invariants().ok())
        << handle.platform->invariants().report();
    EXPECT_GT(handle.platform->invariants().checks_run(), 0u);
    expect_all_accounted(handle);
  }
}

TEST(FaultInjectionTest, AllClassesAtOnceStayConsistent) {
  const RunHandle handle = run_with_faults(
      {"net.drop:p=0.1;net.corrupt:p=0.1;net.delay:p=0.1;"
       "tmpfs.write_fail:p=0.2;disk.write_fail:p=0.2;binder.fail:p=0.1;"
       "devns.teardown:p=0.1;container.crash:p=0.08;container.oom:p=0.05;"
       "cache.evict:p=0.2",
       /*count=*/40});
  EXPECT_GT(handle.platform->fault_injector()->total_fired(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, CrashedSessionsAreRedispatchedAndComplete) {
  const RunHandle handle =
      run_with_faults({"container.crash:p=0.25", /*count=*/40,
                       /*devices=*/4, /*seed=*/3});
  const auto& monitor = handle.platform->server().monitor();
  ASSERT_GT(monitor.crashes_detected(), 0u);
  std::size_t recovered = 0;
  for (const auto& outcome : handle.outcomes) {
    if (outcome.recovered) {
      ++recovered;
      EXPECT_FALSE(outcome.rejected);
      EXPECT_GT(outcome.dispatch_attempts, 1u);
    }
  }
  EXPECT_GT(recovered, 0u) << "no session survived a crash via redispatch";
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, DisablingRecoveryTripsTheLivenessInvariant) {
  // The acceptance check with teeth: turn off the Dispatcher's crash
  // re-dispatch and the "no session bound to a dead CID" invariant must
  // catch the stranding the platform no longer repairs.
  const RunHandle handle = run_with_faults({"container.crash:p=0.3",
                                            /*count=*/40, /*devices=*/4,
                                            /*seed=*/3,
                                            /*crash_recovery=*/false});
  const auto& invariants = handle.platform->invariants();
  EXPECT_FALSE(invariants.ok());
  ASSERT_NE(invariants.first_violation(), nullptr);
  EXPECT_EQ(invariants.first_violation()->name, "session-env-liveness");
  // Pinned from the full-scan harness that preceded the ledger checks:
  // the per-event ledger catches the stranding at the very event the
  // scan did, and records the scan's detail.
  EXPECT_EQ(invariants.first_violation()->when, 2545377);
  EXPECT_EQ(invariants.first_violation()->event_index, 22u);
  EXPECT_EQ(invariants.first_violation()->detail,
            "request 1 bound to dead env 2");
  std::size_t stranded = 0;
  for (const auto& outcome : handle.outcomes) {
    if (outcome.stranded) ++stranded;
  }
  EXPECT_GT(stranded, 0u);
}

TEST(FaultInjectionTest, AuditingEveryEventChangesNoReport) {
  // The audit is an oracle, not a second opinion: with the full scans
  // run after every event, each run must record exactly what the default
  // cadence records — no ledger drift anywhere, and the same violations
  // at the same instants when recovery is off.
  const char* const kPlans[] = {
      "net.drop:p=0.08;net.corrupt:p=0.05;net.delay:p=0.1,delay_ms=400",
      "tmpfs.write_fail:p=0.15;disk.write_fail:p=0.1;cache.evict:p=0.2",
      "container.crash:p=0.06;container.oom:p=0.04;binder.fail:p=0.05;"
      "devns.teardown:p=0.1",
      "container.crash:p=0.3;cache.evict:p=0.3",
  };
  std::size_t violating_runs = 0;
  for (const bool recovery : {true, false}) {
    for (const char* plan : kPlans) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(std::string(plan) + " seed " + std::to_string(seed) +
                     (recovery ? " recovery on" : " recovery off"));
        RunSetup setup{plan, /*count=*/40, /*devices=*/4, seed, recovery};
        const RunHandle base = run_with_faults(setup);
        setup.audit_every_event = true;
        const RunHandle audited = run_with_faults(setup);
        const InvariantChecker& expected = base.platform->invariants();
        const InvariantChecker& actual = audited.platform->invariants();
        EXPECT_EQ(actual.report(), expected.report());
        EXPECT_EQ(actual.total_violations(), expected.total_violations());
        EXPECT_EQ(actual.checks_run(), expected.checks_run());
        // One audit per event, plus the one that closes the drain.
        EXPECT_EQ(actual.audits_run(), actual.checks_run() + 1);
        if (recovery) {
          EXPECT_TRUE(expected.ok()) << expected.report();
        }
        if (!expected.ok()) ++violating_runs;
      }
    }
  }
  EXPECT_GT(violating_runs, 0u) << "no run exercised a violating report";
}

TEST(FaultInjectionTest, ScheduledCrashFiresExactlyOnce) {
  const RunHandle handle =
      run_with_faults({"container.crash:at=5", /*count=*/24});
  EXPECT_EQ(handle.platform->fault_injector()->fired_count(
                sim::FaultKind::kContainerCrash),
            1u);
  EXPECT_EQ(handle.platform->server().monitor().crashes_detected(), 1u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, ConnectDropBudgetRejectsCleanly) {
  // Every handshake drops: the client retries with backoff, exhausts its
  // budget and gives up. The cloud never provisions anything.
  const RunHandle handle = run_with_faults({"net.drop:p=1", /*count=*/12});
  for (const auto& outcome : handle.outcomes) {
    EXPECT_TRUE(outcome.rejected);
    EXPECT_EQ(outcome.connect_attempts, 4u);  // config default budget
  }
  EXPECT_EQ(handle.platform->env_count(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
}

TEST(FaultInjectionTest, TmpfsFailureSpillsWithoutLeakingStagedFiles) {
  const RunHandle handle =
      run_with_faults({"tmpfs.write_fail:p=1", /*count=*/20});
  const auto& shared = handle.platform->server().shared_layer();
  EXPECT_GT(shared.offload_io().injected_write_failures(), 0u);
  EXPECT_EQ(shared.staged_count(), 0u);       // nothing left staged
  EXPECT_EQ(shared.offload_io().used_bytes(), 0u);  // nothing leaked
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

// --------------------------------------------------------------------
// Regression: failed/rejected offloads must not leave live Container DB
// records behind (the bug class the Dispatcher hardening closes).

TEST(FaultInjectionTest, ProvisionFailureLeavesOnlyRetiredDbRecords) {
  // Every container start dies on an injected device-namespace teardown:
  // all requests are rejected, and afterwards the Container DB must hold
  // nothing but retired records — a live record for a dead environment
  // is exactly what would mislead the Dispatcher's next assignment.
  const RunHandle handle =
      run_with_faults({"devns.teardown:p=1", /*count=*/16});
  for (const auto& outcome : handle.outcomes) {
    EXPECT_TRUE(outcome.rejected);
  }
  auto& db = handle.platform->server().env_db();
  EXPECT_GT(db.count(), 0u);
  EXPECT_EQ(db.active_count(), 0u);
  EXPECT_EQ(db.count_in(EnvState::kProvisioning), 0u);
  EXPECT_EQ(db.count_in(EnvState::kIdle), 0u);
  EXPECT_EQ(db.count_in(EnvState::kBusy), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
}

TEST(FaultInjectionTest, CrashRetiresDbRecordAndAffinityMap) {
  // A crash must retire the DB record immediately (before the Monitor
  // even notices) and scrub the AID→CID affinity map, so no later
  // request is routed at the corpse. The affinity-live and
  // db-consistency invariants check this after every event.
  const RunHandle handle =
      run_with_faults({"container.crash:p=0.2", /*count=*/40,
                       /*devices=*/4, /*seed=*/3});
  ASSERT_GT(handle.platform->server().monitor().crashes_reported(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  auto& db = handle.platform->server().env_db();
  std::size_t retired = db.count_in(EnvState::kRetired);
  EXPECT_GT(retired, 0u);
}

TEST(FaultInjectionTest, CleanRunKeepsInjectorSilent) {
  // A platform with no fault plan has no injector, no invariant hook,
  // and exactly the pre-PR behavior.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  Platform platform(std::move(config));
  EXPECT_EQ(platform.fault_injector(), nullptr);
  const auto outcomes = platform.run(
      workloads::make_mixed_stream(3, 4, 2 * sim::kSecond, 17));
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.rejected);
    EXPECT_FALSE(outcome.recovered);
  }
  EXPECT_EQ(platform.invariants().checks_run(), 0u);
}

}  // namespace
}  // namespace rattrap::core
