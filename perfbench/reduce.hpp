// Outcome reducer of the repository benchmark: turns one run's outcome
// vector into the simulated-time metrics and the failure accounting the
// benchmark reports.
//
// Every rate the benchmark prints is derived from these counts and from
// the benchmark's own wall clock, never from LoadSummary's
// offered_rate_per_s / goodput_per_s / duration_s: those share a
// virtual-time denominator that includes the drain tail, so offered
// always reads equal to goodput (see perfbench/README.md).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/offload.hpp"
#include "core/qos/qos.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// Nearest-rank percentile of an ascending vector (0 when empty); the
/// same rank rule core::summarize_load uses.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Mean and p99 of one simulated phase over completed sessions (sim ms).
struct PhaseStat {
  double mean_ms = 0;
  double p99_ms = 0;
};

struct ClassCounts {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double queue_wait_p99_ms = 0;  ///< accept-queue wait p99, completed
};

struct SimStats {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;  ///< rejected but not stranded
  std::size_t stranded = 0;
  std::size_t transport_failures = 0;  ///< offered, no outcome came back

  double response_p50_ms = 0;
  double response_p99_ms = 0;
  std::size_t response_samples = 0;
  /// Response p99 of the highest-priority class with completed sessions.
  double top_class_p99_ms = 0;
  double energy_mj_mean = 0;

  PhaseStat connection, preparation, transfer, computation, queue_wait;
  std::array<ClassCounts, rattrap::core::qos::kClassCount> by_class{};

  std::uint64_t redispatched = 0;     ///< dispatch attempts beyond the first
  std::uint64_t connect_retries = 0;  ///< connect attempts beyond the first

  [[nodiscard]] std::size_t failed() const {
    return rejected + stranded + transport_failures;
  }
  [[nodiscard]] double failed_share() const {
    return offered == 0 ? 0
                        : static_cast<double>(failed()) /
                              static_cast<double>(offered);
  }
  /// offered == completed + rejected (stranded and lost sessions count as
  /// rejected), in total and for every class.
  [[nodiscard]] bool accounting_ok() const {
    if (offered != completed + failed()) return false;
    std::size_t class_offered = 0;
    for (const ClassCounts& c : by_class) {
      if (c.offered != c.completed + c.rejected) return false;
      class_offered += c.offered;
    }
    return class_offered + transport_failures == offered;
  }
};

/// Reduces one run: `outcomes[i]` is the outcome of sequence i, or
/// nullptr when the transport lost it.
inline SimStats reduce_outcomes(
    const std::vector<const rattrap::core::RequestOutcome*>& outcomes) {
  namespace qos = rattrap::core::qos;
  using rattrap::sim::to_millis;
  SimStats stats;
  stats.offered = outcomes.size();
  std::vector<double> response, energy, connection, preparation, transfer,
      computation, queue_wait;
  std::array<std::vector<double>, qos::kClassCount> class_response,
      class_queue_wait;
  for (const rattrap::core::RequestOutcome* outcome : outcomes) {
    if (outcome == nullptr) {
      ++stats.transport_failures;
      continue;
    }
    ClassCounts& klass = stats.by_class[qos::class_index(outcome->qos_class)];
    ++klass.offered;
    stats.redispatched += outcome->dispatch_attempts > 1
                              ? outcome->dispatch_attempts - 1
                              : 0;
    stats.connect_retries +=
        outcome->connect_attempts > 1 ? outcome->connect_attempts - 1 : 0;
    if (outcome->rejected) {
      ++klass.rejected;
      ++(outcome->stranded ? stats.stranded : stats.rejected);
      continue;
    }
    ++klass.completed;
    ++stats.completed;
    const double ms = to_millis(outcome->response);
    response.push_back(ms);
    class_response[qos::class_index(outcome->qos_class)].push_back(ms);
    energy.push_back(outcome->offload_energy_mj);
    connection.push_back(to_millis(outcome->phases.network_connection));
    preparation.push_back(to_millis(outcome->phases.runtime_preparation));
    transfer.push_back(to_millis(outcome->phases.data_transfer));
    computation.push_back(to_millis(outcome->phases.computation));
    queue_wait.push_back(to_millis(outcome->queue_wait));
    class_queue_wait[qos::class_index(outcome->qos_class)].push_back(
        to_millis(outcome->queue_wait));
  }
  const auto phase = [](std::vector<double>& values) {
    PhaseStat out;
    out.mean_ms = mean(values);
    std::sort(values.begin(), values.end());
    out.p99_ms = percentile(values, 0.99);
    return out;
  };
  std::sort(response.begin(), response.end());
  stats.response_samples = response.size();
  stats.response_p50_ms = percentile(response, 0.50);
  stats.response_p99_ms = percentile(response, 0.99);
  stats.energy_mj_mean = mean(energy);
  stats.connection = phase(connection);
  stats.preparation = phase(preparation);
  stats.transfer = phase(transfer);
  stats.computation = phase(computation);
  stats.queue_wait = phase(queue_wait);
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    const std::size_t index = qos::class_index(klass);
    std::vector<double>& sorted = class_response[index];
    std::sort(sorted.begin(), sorted.end());
    if (stats.top_class_p99_ms == 0) {
      stats.top_class_p99_ms = percentile(sorted, 0.99);
    }
    std::sort(class_queue_wait[index].begin(), class_queue_wait[index].end());
    stats.by_class[index].queue_wait_p99_ms =
        percentile(class_queue_wait[index], 0.99);
  }
  return stats;
}

}  // namespace perfbench
