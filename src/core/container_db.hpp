// Container DB: the platform's registry of runtime environments.
//
// "Container DB stores information of Cloud Android Containers as basis of
// resource management" (§IV-A).  The same registry also tracks VM-backed
// environments so the three platform variants share one bookkeeping path.
//
// Storage layout (the dispatch hot path does one lookup per request):
// records live in a std::deque so the EnvRecord& returned by add()/find()
// stays stable for the environment's lifetime, while two flat hash maps
// (sim/flat_hash.hpp) index them — id→slot and bound-key→ids.  The key
// index holds live ids only, sorted ascending, so find_by_key() returns
// the lowest-id live match without walking retired environments.  A
// count of retired records makes active_count() and
// count_in(kRetired) O(1).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/warehouse.hpp"  // EnvId
#include "obs/metrics.hpp"
#include "sim/flat_hash.hpp"
#include "sim/time.hpp"

namespace rattrap::core {

enum class EnvState : std::uint8_t {
  kProvisioning,  ///< booting, not yet connected to the Dispatcher
  kIdle,          ///< booted, no running job
  kBusy,          ///< executing offloaded code
  kDraining,      ///< no new leases; finishing in-flight work
  kRetired,       ///< stopped; entered only through ContainerDb::retire()
};

[[nodiscard]] const char* to_string(EnvState state);

enum class EnvBacking : std::uint8_t { kVm, kContainer };

struct EnvRecord {
  EnvId id = 0;
  EnvBacking backing = EnvBacking::kContainer;
  EnvState state = EnvState::kProvisioning;
  sim::SimTime provisioned_at = 0;  ///< boot start
  sim::SimTime ready_at = 0;        ///< boot end + dispatcher registration
  sim::SimTime busy_until = 0;      ///< compute backlog horizon
  std::uint32_t jobs_executed = 0;
  /// Dispatcher binding (device or app key).  Indexed — change it through
  /// ContainerDb::rebind(), never by assigning to this field.
  std::string bound_key;
};

class ContainerDb {
 public:
  /// Registers a new environment; returns its record.  The reference is
  /// stable for the environment's lifetime.
  EnvRecord& add(EnvId id, EnvBacking backing, std::string bound_key,
                 sim::SimTime now);

  [[nodiscard]] EnvRecord* find(EnvId id);
  [[nodiscard]] const EnvRecord* find(EnvId id) const;

  /// Environment bound to `key`, if any: the lowest-id non-retired match.
  [[nodiscard]] EnvRecord* find_by_key(std::string_view key);

  /// Re-points an environment's binding key, keeping the key index
  /// coherent (a retired environment is not indexed). Returns false for
  /// unknown ids.
  bool rebind(EnvId id, std::string key);

  /// Marks an environment retired and drops it from the key index.
  /// Returns false for unknown or already retired ids.
  bool retire(EnvId id);

  [[nodiscard]] std::size_t count() const { return by_id_.size(); }
  /// O(1) for kRetired; other states scan the records.
  [[nodiscard]] std::size_t count_in(EnvState state) const;

  /// Environments live (not retired) — the Fig. 2 active-env denominator.
  [[nodiscard]] std::size_t active_count() const {
    return count() - retired_count_;
  }

  [[nodiscard]] std::vector<EnvId> ids() const;

  /// Attaches a metrics registry: registrations/retirements count into
  /// envdb.added / envdb.retired and envdb.active tracks the live
  /// environment population. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  void unindex_key(const std::string& key, EnvId id);
  void index_key(const std::string& key, EnvId id);

  std::deque<EnvRecord> records_;  ///< stable addresses; never shrinks
  sim::FlatHashMap<EnvId, std::uint32_t> by_id_;  ///< id → records_ slot
  /// bound key → live ids holding it, sorted ascending (usually size 1).
  sim::FlatHashMap<std::string, std::vector<EnvId>> by_key_;
  std::size_t retired_count_ = 0;  ///< records in kRetired
  obs::Counter* metric_added_ = nullptr;
  obs::Counter* metric_retired_ = nullptr;
  obs::Gauge* metric_active_ = nullptr;
};

}  // namespace rattrap::core
