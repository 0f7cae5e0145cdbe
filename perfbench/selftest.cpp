// perfbench_selftest — checks the benchmark's outcome reducer against a
// hand-built outcome vector whose failed share and percentiles are known.
// Exit 0 when every check holds, 1 otherwise (one line per failed check).
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/offload.hpp"
#include "reduce.hpp"

namespace {

using rattrap::core::RejectReason;
using rattrap::core::RequestOutcome;
using rattrap::core::qos::PriorityClass;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

RequestOutcome completed(double response_ms, PriorityClass klass) {
  RequestOutcome outcome;
  outcome.response =
      static_cast<rattrap::sim::SimDuration>(response_ms * 1000);
  outcome.qos_class = klass;
  outcome.offload_energy_mj = response_ms / 10;
  outcome.dispatch_attempts = 1;
  outcome.connect_attempts = 1;
  return outcome;
}

}  // namespace

int main() {
  // Eight completed sessions at 10..80 ms; 10 and 70 ms are interactive.
  std::vector<RequestOutcome> storage;
  for (int i = 1; i <= 8; ++i) {
    const PriorityClass klass = (i == 1 || i == 7)
                                    ? PriorityClass::kInteractive
                                    : PriorityClass::kStandard;
    storage.push_back(completed(10.0 * i, klass));
  }
  storage[2].dispatch_attempts = 2;  // re-dispatched once after a crash
  storage[3].connect_attempts = 3;   // two connect retries

  RequestOutcome rejected;
  rejected.rejected = true;
  rejected.reject_reason = RejectReason::kQueueFull;
  storage.push_back(rejected);

  RequestOutcome stranded;
  stranded.rejected = true;
  stranded.stranded = true;
  stranded.reject_reason = RejectReason::kStranded;
  stranded.qos_class = PriorityClass::kBatch;
  storage.push_back(stranded);

  std::vector<const RequestOutcome*> outcomes;
  for (const RequestOutcome& outcome : storage) outcomes.push_back(&outcome);

  const perfbench::SimStats stats = perfbench::reduce_outcomes(outcomes);
  expect(stats.offered == 10, "offered");
  expect(stats.completed == 8, "completed");
  expect(stats.rejected == 1, "rejected (not stranded)");
  expect(stats.stranded == 1, "stranded");
  expect(stats.failed() == 2, "failed counts the stranded session once");
  expect_near(stats.failed_share(), 0.2, "failed_share");
  expect(stats.accounting_ok(), "offered == completed + rejected");
  expect(stats.response_samples == 8, "response samples");
  expect_near(stats.response_p50_ms, 40, "response p50 (nearest rank)");
  expect_near(stats.response_p99_ms, 80, "response p99 (nearest rank)");
  expect_near(stats.top_class_p99_ms, 70, "interactive p99");
  expect_near(stats.energy_mj_mean, 4.5, "mean energy of completed");
  expect(stats.redispatched == 1, "redispatched");
  expect(stats.connect_retries == 2, "connect retries");
  expect(stats.by_class[2].offered == 1 && stats.by_class[2].rejected == 1,
         "stranded batch session counted in its class");

  // A session the transport lost counts as failed, not as offered to a
  // class.
  outcomes.push_back(nullptr);
  const perfbench::SimStats lost = perfbench::reduce_outcomes(outcomes);
  expect(lost.transport_failures == 1, "transport failure");
  expect_near(lost.failed_share(), 3.0 / 11.0, "failed_share with a loss");
  expect(lost.accounting_ok(), "identity holds with a loss");

  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
