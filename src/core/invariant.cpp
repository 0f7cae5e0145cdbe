#include "core/invariant.hpp"

#include <utility>

namespace rattrap::core {

namespace {

/// The ledger-drift detail when the two tiers disagree, else nullopt.
std::optional<std::string> drift(const std::optional<std::string>& check,
                                 const std::optional<std::string>& scan) {
  if (check.has_value() == scan.has_value()) return std::nullopt;
  if (check.has_value()) return "ledger reports (" + *check + "), scan holds";
  return "ledger holds, scan reports (" + *scan + ")";
}

}  // namespace

void InvariantChecker::add_invariant(std::string name, Check check,
                                     Check scan) {
  invariants_.push_back({std::move(name), std::move(check), std::move(scan)});
}

bool InvariantChecker::run(sim::SimTime now) {
  const std::uint64_t index = checks_run_++;
  const bool audit = audit_every_run_ || checks_run_ % kAuditEvery == 0;
  if (audit) ++audits_run_;
  bool all_held = true;
  for (const auto& invariant : invariants_) {
    all_held = evaluate(invariant, now, index, audit) && all_held;
  }
  return all_held;
}

bool InvariantChecker::evaluate(const Invariant& invariant, sim::SimTime now,
                                std::uint64_t event_index, bool audit) {
  std::optional<std::string> check = invariant.check();
  // Past the recording cap only the count moves, and a tripped check
  // counts once whichever tier explains it — so skip the scan there.
  const bool scan = invariant.scan &&
                    (audit || (check.has_value() &&
                               violations_.size() < max_recorded_));
  if (!scan) {
    if (!check.has_value()) return true;
    record(invariant.name, std::move(*check), now, event_index);
    return false;
  }
  std::optional<std::string> full = invariant.scan();
  if (auto gap = drift(check, full)) {
    record(invariant.name + "/ledger-drift", std::move(*gap), now,
           event_index);
    return false;
  }
  if (!full.has_value()) return true;
  record(invariant.name, std::move(*full), now, event_index);
  return false;
}

bool InvariantChecker::audit(sim::SimTime now) {
  ++audits_run_;
  bool no_drift = true;
  for (const auto& invariant : invariants_) {
    if (!invariant.scan) continue;
    if (auto gap = drift(invariant.check(), invariant.scan())) {
      record(invariant.name + "/ledger-drift", std::move(*gap), now,
             checks_run_);
      no_drift = false;
    }
  }
  return no_drift;
}

void InvariantChecker::record(std::string name, std::string detail,
                              sim::SimTime now, std::uint64_t event_index) {
  ++total_violations_;
  if (violations_.size() < max_recorded_) {
    violations_.push_back({std::move(name), std::move(detail), now,
                           event_index});
  }
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += std::to_string(v.when) + "us " + v.name + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace rattrap::core
