// CLI contract for tools/experiments: golden determinism (same manifest
// + seed => byte-identical summary fingerprint, regardless of worker
// count), teeth (a tripped expect.* criterion or a manifest typo must
// exit nonzero — CI gates on this), strict flag and value parsing, and
// the committed fault-sweep manifest.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cli_test_util.hpp"

namespace rattrap::clitest {
namespace {

const std::string kBin = RATTRAP_EXPERIMENTS_BIN;

std::string write_manifest(const std::string& name,
                           const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Two tiny experiments (3 runs total) so the sweep finishes in well
// under a second while still exercising a grid axis and a handoff.
const char* kMiniManifest =
    "[mini-sweep]\n"
    "scenario = smoke\n"
    "quick = true\n"
    "arrival = poisson\n"
    "rate = 40\n"
    "devices = 10\n"
    "requests = 80\n"
    "seed = 1|2\n"
    "expect.accounting = identity\n"
    "expect.max.invariant_violations = 0\n"
    "\n"
    "[mini-handoff]\n"
    "scenario = handoff\n"
    "quick = true\n"
    "arrival = poisson\n"
    "link = lan\n"
    "rate = 40\n"
    "devices = 20\n"
    "requests = 200\n"
    // Past the ~2 s env cold-boot so LAN completes some requests first.
    "handoff = 3g:3.5:0.5\n"
    "seed = 5\n"
    "expect.accounting = identity\n"
    "expect.min.handoffs = 1\n"
    "expect.min.radio_slices = 2\n";

TEST(ExperimentsCli, ListsBuiltinQuickSubset) {
  const CommandResult result = run_command(kBin + " --list --quick");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.contains("runs across")) << result.output;
  EXPECT_TRUE(result.contains("handoff-wifi-3g/")) << result.output;
  // saturation-grid is quick=false and must not appear in quick mode.
  EXPECT_FALSE(result.contains("saturation-grid")) << result.output;
}

TEST(ExperimentsCli, PrintManifestEmitsTheBuiltinMatrix) {
  const CommandResult result = run_command(kBin + " --print-manifest");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.contains("[trace-replay-day]"));
  EXPECT_TRUE(result.contains("expect.accounting = identity"));
}

TEST(ExperimentsCli, UnknownFlagExitsWithUsage) {
  const CommandResult result = run_command(kBin + " --bogus-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("usage:")) << result.output;
}

TEST(ExperimentsCli, MalformedManifestRejected) {
  const std::string path = write_manifest(
      "broken.ini", "[x]\nthis line has no equals sign\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --list");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(ExperimentsCli, UnknownManifestKeyIsATypoNotADefault) {
  // A misspelled key must fail the run, never silently fall back to the
  // default value it was trying to override.
  const std::string path = write_manifest(
      "typo.ini",
      "[x]\nquick = true\nratee = 50\nrequests = 50\n"
      "expect.accounting = identity\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "typo-out");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_TRUE(result.contains("ratee")) << result.output;
}

TEST(ExperimentsCli, GoldenDeterminismAcrossRunsAndWorkerCounts) {
  const std::string manifest = write_manifest("mini.ini", kMiniManifest);
  const std::string out_a = ::testing::TempDir() + "mini-out-a";
  const std::string out_b = ::testing::TempDir() + "mini-out-b";
  const CommandResult first = run_command(
      kBin + " --manifest " + manifest + " --quick --jobs 1 --out " + out_a);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const CommandResult second = run_command(
      kBin + " --manifest " + manifest + " --quick --jobs 4 --out " + out_b);
  ASSERT_EQ(second.exit_code, 0) << second.output;

  const std::string fingerprint =
      extract_value(first.output, "summary_fingerprint");
  ASSERT_FALSE(fingerprint.empty()) << first.output;
  EXPECT_EQ(extract_value(second.output, "summary_fingerprint"),
            fingerprint);

  const std::string summary_a = read_file(out_a + "/summary.json");
  const std::string summary_b = read_file(out_b + "/summary.json");
  ASSERT_FALSE(summary_a.empty());
  EXPECT_EQ(summary_a, summary_b);  // byte-identical artifacts
}

TEST(ExperimentsCli, SweepEmitsPerRunAndSummaryArtifacts) {
  const std::string manifest = write_manifest("mini2.ini", kMiniManifest);
  const std::string out = ::testing::TempDir() + "mini-out-c";
  const CommandResult result = run_command(
      kBin + " --manifest " + manifest + " --quick --out " + out);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_FALSE(read_file(out + "/summary.csv").empty());
  EXPECT_FALSE(read_file(out + "/summary.md").empty());
  const std::string run_json =
      read_file(out + "/mini-sweep/seed=1/run.json");
  EXPECT_TRUE(run_json.find("\"metrics\"") != std::string::npos)
      << run_json;
}

TEST(ExperimentsCli, TrippedCriterionFailsTheSweep) {
  // The CI gate's teeth: an impossible expectation must turn into a
  // nonzero exit, not a cosmetic note in the summary.
  const std::string path = write_manifest(
      "teeth.ini",
      "[impossible]\n"
      "quick = true\n"
      "arrival = poisson\n"
      "rate = 40\n"
      "devices = 10\n"
      "requests = 60\n"
      "seed = 1\n"
      "expect.min.completed_share = 2\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "teeth-out");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_TRUE(result.contains("FAIL")) << result.output;
}

TEST(ExperimentsCli, DisarmedRacFailsTheAdversaryGate) {
  // The RAC teeth check CI runs: with the defense disarmed no tenant is
  // ever blocked, so the adversary gate must fail — on the block count,
  // while the invariant harness (armed at every size) stays silent.
  const std::string path = write_manifest(
      "rac-teeth.ini",
      "[rac-teeth]\n"
      "quick = true\n"
      "arrival = poisson\n"
      "rate = 40\n"
      "devices = 100\n"
      "requests = 500\n"
      "admission = on\n"
      "qos = on\n"
      "mix = victim:interactive:2:0.3;prober:standard:1:0.2:probe;"
      "flooder:interactive:1:0.3:flood;thrasher:batch:1:0.2:thrash\n"
      "rac = off\n"
      "tenant_queue_quota = 0\n"
      "seed = 1|2\n"
      "expect.max.invariant_violations = 0\n"
      "expect.min.rac.blocks = 1\n");
  const std::string out = ::testing::TempDir() + "rac-teeth-out";
  const CommandResult result = run_command(
      kBin + " --manifest " + path + " --quick --jobs 1 --out " + out);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  const std::string summary = read_file(out + "/summary.md");
  EXPECT_NE(summary.find("min.rac.blocks"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("invariant_violations"), std::string::npos)
      << summary;
}

TEST(ExperimentsCli, FaultSweepManifestPlansBothSweeps) {
  const std::string manifest = RATTRAP_FAULT_SWEEP_MANIFEST;
  const CommandResult quick =
      run_command(kBin + " --manifest " + manifest + " --list --quick");
  ASSERT_EQ(quick.exit_code, 0) << quick.output;
  EXPECT_TRUE(quick.contains("30 runs across 1 experiments")) << quick.output;
  const CommandResult full =
      run_command(kBin + " --manifest " + manifest + " --list");
  ASSERT_EQ(full.exit_code, 0) << full.output;
  EXPECT_TRUE(full.contains("36 runs across 2 experiments")) << full.output;
}

// A seed sweep with crash faults; `recovery` and the expectation vary.
std::string crash_sweep(const std::string& recovery) {
  return "[crash-sweep]\n"
         "quick = true\n"
         "arrival = poisson\n"
         "kind = linpack\n"
         "rate = 0.5\n"
         "devices = 6\n"
         "requests = 40\n"
         "faults = container.crash:p=0.1\n"
         "recovery = " + recovery + "\n"
         "seed = 1|2|3|4|5\n"
         "expect.max.invariant_violations = 0\n";
}

TEST(ExperimentsCli, RecoveryOffTripsTheInvariantGate) {
  // The harness's teeth: with crash re-dispatch off, sessions strand on
  // dead environments and the liveness invariant must fail the sweep.
  const std::string on = write_manifest("recovery-on.ini", crash_sweep("on"));
  const CommandResult armed = run_command(
      kBin + " --manifest " + on + " --quick --out " + ::testing::TempDir() +
      "recovery-on-out");
  EXPECT_EQ(armed.exit_code, 0) << armed.output;

  const std::string off =
      write_manifest("recovery-off.ini", crash_sweep("off"));
  const std::string out = ::testing::TempDir() + "recovery-off-out";
  const CommandResult result = run_command(
      kBin + " --manifest " + off + " --quick --out " + out);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  const std::string summary = read_file(out + "/summary.md");
  EXPECT_NE(summary.find("max.invariant_violations"), std::string::npos)
      << summary;
}

TEST(ExperimentsCli, MalformedRecoveryValueIsAManifestError) {
  const std::string path =
      write_manifest("recovery-bad.ini", crash_sweep("maybe"));
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "recovery-bad-out");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_TRUE(result.contains("recovery must be on|off")) << result.output;
}

TEST(ExperimentsCli, InvariantsAcceptsOnlyAutoOnOff) {
  const std::string path = write_manifest(
      "invariants-force.ini",
      "[x]\nquick = true\nrequests = 60\ninvariants = force\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "invariants-force-out");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_TRUE(result.contains("invariants must be auto|on|off"))
      << result.output;
}

TEST(ExperimentsCli, UnknownCriterionMetricFails) {
  const std::string path = write_manifest(
      "badcrit.ini",
      "[x]\n"
      "quick = true\n"
      "requests = 60\n"
      "seed = 1\n"
      "expect.min.no_such_metric = 1\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "badcrit-out");
  EXPECT_NE(result.exit_code, 0);
}

}  // namespace
}  // namespace rattrap::clitest
