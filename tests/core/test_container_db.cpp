#include "core/container_db.hpp"

#include <gtest/gtest.h>

namespace rattrap::core {
namespace {

TEST(ContainerDb, AddAndFind) {
  ContainerDb db;
  EnvRecord& record = db.add(1, EnvBacking::kContainer, "dev:0", 100);
  EXPECT_EQ(record.state, EnvState::kProvisioning);
  EXPECT_EQ(record.provisioned_at, 100);
  EXPECT_EQ(db.find(1), &record);
  EXPECT_EQ(db.find(2), nullptr);
}

TEST(ContainerDb, FindByKey) {
  ContainerDb db;
  db.add(1, EnvBacking::kContainer, "dev:0", 0);
  db.add(2, EnvBacking::kContainer, "dev:1", 0);
  EnvRecord* record = db.find_by_key("dev:1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->id, 2u);
  EXPECT_EQ(db.find_by_key("dev:9"), nullptr);
}

TEST(ContainerDb, RetiredEnvsAreNotFoundByKey) {
  ContainerDb db;
  db.add(1, EnvBacking::kVm, "dev:0", 0);
  EXPECT_TRUE(db.retire(1));
  EXPECT_EQ(db.find_by_key("dev:0"), nullptr);
  EXPECT_FALSE(db.retire(1));  // idempotent failure
}

TEST(ContainerDb, StateCounts) {
  ContainerDb db;
  db.add(1, EnvBacking::kContainer, "a", 0);
  db.add(2, EnvBacking::kContainer, "b", 0).state = EnvState::kIdle;
  db.add(3, EnvBacking::kContainer, "c", 0).state = EnvState::kBusy;
  db.retire(1);
  EXPECT_EQ(db.count(), 3u);
  EXPECT_EQ(db.count_in(EnvState::kIdle), 1u);
  EXPECT_EQ(db.count_in(EnvState::kBusy), 1u);
  EXPECT_EQ(db.count_in(EnvState::kRetired), 1u);
  EXPECT_EQ(db.active_count(), 2u);
}

TEST(ContainerDb, ActiveCountSurvivesDoubleRetire) {
  ContainerDb db;
  db.add(1, EnvBacking::kContainer, "a", 0);
  db.add(2, EnvBacking::kContainer, "b", 0);
  EXPECT_TRUE(db.retire(1));
  EXPECT_FALSE(db.retire(1));
  EXPECT_FALSE(db.retire(7));  // unknown id
  EXPECT_EQ(db.active_count(), 1u);
  EXPECT_EQ(db.count_in(EnvState::kRetired), 1u);
}

TEST(ContainerDb, ReRegisteringARetiredIdRevivesIt) {
  ContainerDb db;
  db.add(1, EnvBacking::kContainer, "a", 0);
  db.add(2, EnvBacking::kContainer, "b", 0);
  db.retire(1);
  EnvRecord& revived = db.add(1, EnvBacking::kVm, "c", 5);
  EXPECT_EQ(revived.state, EnvState::kProvisioning);
  EXPECT_EQ(db.count(), 2u);
  EXPECT_EQ(db.active_count(), 2u);
  EXPECT_EQ(db.count_in(EnvState::kRetired), 0u);
  EXPECT_EQ(db.find_by_key("c"), &revived);
  EXPECT_EQ(db.find_by_key("a"), nullptr);
  // Re-registering a live id replaces it without touching the counts.
  db.add(2, EnvBacking::kContainer, "d", 6);
  EXPECT_EQ(db.active_count(), 2u);
  EXPECT_EQ(db.find_by_key("b"), nullptr);
  EXPECT_TRUE(db.retire(1));
  EXPECT_EQ(db.active_count(), 1u);
}

TEST(ContainerDb, KeyLookupSkipsRetiredIds) {
  // A crashed environment keeps its record but not its binding: the next
  // live holder of the key is found directly.
  ContainerDb db;
  db.add(1, EnvBacking::kContainer, "dev:0", 0);
  db.add(2, EnvBacking::kContainer, "dev:0", 0);
  db.retire(1);
  ASSERT_NE(db.find_by_key("dev:0"), nullptr);
  EXPECT_EQ(db.find_by_key("dev:0")->id, 2u);
  // Rebinding a retired environment moves its key but never indexes it.
  EXPECT_TRUE(db.rebind(1, "dev:9"));
  EXPECT_EQ(db.find(1)->bound_key, "dev:9");
  EXPECT_EQ(db.find_by_key("dev:9"), nullptr);
  db.retire(2);
  EXPECT_EQ(db.find_by_key("dev:0"), nullptr);
}

TEST(ContainerDb, IdsListing) {
  ContainerDb db;
  db.add(5, EnvBacking::kVm, "a", 0);
  db.add(2, EnvBacking::kVm, "b", 0);
  const auto ids = db.ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 2u);
  EXPECT_EQ(ids[1], 5u);
}

TEST(ContainerDb, StateNames) {
  EXPECT_STREQ(to_string(EnvState::kProvisioning), "provisioning");
  EXPECT_STREQ(to_string(EnvState::kBusy), "busy");
}

}  // namespace
}  // namespace rattrap::core
