// Invariant checker: cross-component consistency validation.
//
// Fault injection is only as good as the oracle judging the aftermath.
// This harness holds a set of named predicates over platform state —
// "no session is bound to a dead container", "the shared tmpfs holds
// exactly the live offload files" — and evaluates them after every
// simulator event (via Simulator::set_post_event_hook).  A violation is
// recorded with the virtual time and a human-readable detail string so a
// failing seed can be replayed and diagnosed.
//
// Every invariant has two tiers (docs/FAULTS.md):
//
//   * the check — run by every run(), so it must cost O(1) (or O(what
//     changed in this event)): it compares ledgers the owner updates at
//     the transitions that move them;
//   * the scan — an optional full-state predicate over the same property,
//     the oracle the ledgers summarise.  It runs as an audit every
//     kAuditEvery-th run(), and on audit().  When the two disagree, the
//     gap is itself a violation, "<name>/ledger-drift".  When the check
//     trips and the scan agrees, the scan's detail is recorded, so a
//     violation reads the same whichever tier found it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rattrap::core {

struct InvariantViolation {
  std::string name;    ///< which invariant tripped
  std::string detail;  ///< what the predicate saw
  sim::SimTime when = 0;
  std::uint64_t event_index = 0;  ///< how many checks had run before this
};

class InvariantChecker {
 public:
  /// A check returns std::nullopt when the invariant holds, or a detail
  /// string describing the inconsistency when it is violated.
  using Check = std::function<std::optional<std::string>()>;

  /// run() audits every scan on each kAuditEvery-th call.  An audit
  /// costs O(environments ever provisioned + live sessions); this spacing
  /// keeps it a few percent of wall time on a 10^5-session fault storm
  /// (docs/PERF.md).
  static constexpr std::uint64_t kAuditEvery = 4096;

  /// Registers `name`: `check` is the per-event tier, `scan` (may be
  /// empty when `check` already reads the components directly) the full
  /// predicate it is audited against.
  void add_invariant(std::string name, Check check, Check scan = {});

  /// Evaluates every check at virtual time `now`, and on every
  /// kAuditEvery-th call audits the scans too.  Returns true when
  /// nothing was recorded.  Violations are recorded (up to
  /// `max_recorded()` of them; the counter keeps counting past the cap).
  bool run(sim::SimTime now);

  /// Audits every scan against its check now; each disagreement is
  /// recorded as "<name>/ledger-drift".  Returns true when there is none.
  /// Does not count as a run().
  bool audit(sim::SimTime now);

  /// Test hook: audit on every run() instead of every kAuditEvery-th —
  /// the oracle mode the differential tests compare against.
  void set_audit_every_run(bool on) { audit_every_run_ = on; }

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t audits_run() const { return audits_run_; }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::size_t invariant_count() const {
    return invariants_.size();
  }

  /// First recorded violation, or nullptr when everything held.
  [[nodiscard]] const InvariantViolation* first_violation() const {
    return violations_.empty() ? nullptr : &violations_.front();
  }

  /// One line per recorded violation: "<time>us <name>: <detail>".
  [[nodiscard]] std::string report() const;

  void set_max_recorded(std::size_t max) { max_recorded_ = max; }
  [[nodiscard]] std::size_t max_recorded() const { return max_recorded_; }

 private:
  struct Invariant {
    std::string name;
    Check check;
    Check scan;
  };

  /// Runs `invariant`'s check, and its scan when `audit` is set (or when
  /// a tripped check's detail would be recorded).  Returns false when it
  /// recorded anything.
  bool evaluate(const Invariant& invariant, sim::SimTime now,
                std::uint64_t event_index, bool audit);
  void record(std::string name, std::string detail, sim::SimTime now,
              std::uint64_t event_index);

  std::vector<Invariant> invariants_;
  std::vector<InvariantViolation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t audits_run_ = 0;
  std::size_t max_recorded_ = 64;
  bool audit_every_run_ = false;
};

}  // namespace rattrap::core
