#include "core/container_db.hpp"

#include <algorithm>

namespace rattrap::core {

const char* to_string(EnvState state) {
  switch (state) {
    case EnvState::kProvisioning:
      return "provisioning";
    case EnvState::kIdle:
      return "idle";
    case EnvState::kBusy:
      return "busy";
    case EnvState::kDraining:
      return "draining";
    case EnvState::kRetired:
      return "retired";
  }
  return "?";
}

void ContainerDb::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_added_ = metric_retired_ = nullptr;
    metric_active_ = nullptr;
    return;
  }
  metric_added_ = &metrics->counter("envdb.added");
  metric_retired_ = &metrics->counter("envdb.retired");
  metric_active_ = &metrics->gauge("envdb.active");
}

void ContainerDb::index_key(const std::string& key, EnvId id) {
  std::vector<EnvId>& ids = by_key_[key];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void ContainerDb::unindex_key(const std::string& key, EnvId id) {
  std::vector<EnvId>* ids = by_key_.find(key);
  if (ids == nullptr) return;
  const auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
  if (ids->empty()) by_key_.erase(key);
}

EnvRecord& ContainerDb::add(EnvId id, EnvBacking backing,
                            std::string bound_key, sim::SimTime now) {
  EnvRecord record;
  record.id = id;
  record.backing = backing;
  record.state = EnvState::kProvisioning;
  record.provisioned_at = now;
  record.bound_key = std::move(bound_key);

  EnvRecord* stored;
  if (const std::uint32_t* slot = by_id_.find(id)) {
    // Re-registration of an existing id replaces the record in place
    // (insert_or_assign semantics of the original ordered map).
    stored = &records_[*slot];
    if (stored->state == EnvState::kRetired) {
      --retired_count_;
    } else {
      unindex_key(stored->bound_key, id);
    }
    *stored = std::move(record);
  } else {
    const auto fresh = static_cast<std::uint32_t>(records_.size());
    records_.push_back(std::move(record));
    by_id_.insert_or_assign(id, fresh);
    stored = &records_.back();
  }
  index_key(stored->bound_key, id);
  if (metric_added_ != nullptr) {
    metric_added_->inc();
    metric_active_->set(static_cast<double>(active_count()));
  }
  return *stored;
}

EnvRecord* ContainerDb::find(EnvId id) {
  const std::uint32_t* slot = by_id_.find(id);
  return slot == nullptr ? nullptr : &records_[*slot];
}

const EnvRecord* ContainerDb::find(EnvId id) const {
  const std::uint32_t* slot = by_id_.find(id);
  return slot == nullptr ? nullptr : &records_[*slot];
}

EnvRecord* ContainerDb::find_by_key(std::string_view key) {
  const std::vector<EnvId>* ids = by_key_.find(key);
  if (ids == nullptr) return nullptr;
  return ids->empty() ? nullptr : find(ids->front());  // lowest live id
}

bool ContainerDb::rebind(EnvId id, std::string key) {
  EnvRecord* record = find(id);
  if (record == nullptr) return false;
  if (record->bound_key == key) return true;
  const bool live = record->state != EnvState::kRetired;
  if (live) unindex_key(record->bound_key, id);
  record->bound_key = std::move(key);
  if (live) index_key(record->bound_key, id);
  return true;
}

bool ContainerDb::retire(EnvId id) {
  EnvRecord* record = find(id);
  if (record == nullptr || record->state == EnvState::kRetired) return false;
  record->state = EnvState::kRetired;
  ++retired_count_;
  unindex_key(record->bound_key, id);
  if (metric_retired_ != nullptr) {
    metric_retired_->inc();
    metric_active_->set(static_cast<double>(active_count()));
  }
  return true;
}

std::size_t ContainerDb::count_in(EnvState state) const {
  if (state == EnvState::kRetired) return retired_count_;
  std::size_t n = 0;
  for (const EnvRecord& record : records_) {
    if (record.state == state) ++n;
  }
  return n;
}

std::vector<EnvId> ContainerDb::ids() const {
  std::vector<EnvId> out;
  out.reserve(records_.size());
  for (const EnvRecord& record : records_) out.push_back(record.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rattrap::core
