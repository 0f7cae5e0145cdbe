#include "fs/union_fs.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "sim/random.hpp"

namespace rattrap::fs {
namespace {

std::shared_ptr<Layer> make_lower() {
  auto lower = std::make_shared<Layer>("system");
  lower->put_file("/system/lib/libc.so", 1000);
  lower->put_file("/system/lib/libm.so", 500);
  lower->put_file("/system/app/base.apk", 2000);
  return lower;
}

TEST(UnionFs, LookupFindsLowerLayerFiles) {
  UnionFs ufs("c1", {make_lower()});
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 1000u);
  EXPECT_GT(hit.layer_index, 0u);  // resolved below the top
}

TEST(UnionFs, TopLayerShadowsLower) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/system/lib/libc.so", 42, 0);
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 42u);
  EXPECT_EQ(hit.layer_index, 0u);
}

TEST(UnionFs, HigherLowerLayerWins) {
  auto bottom = std::make_shared<Layer>("bottom");
  bottom->put_file("/f", 1);
  auto middle = std::make_shared<Layer>("middle");
  middle->put_file("/f", 2);
  UnionFs ufs("c1", {bottom, middle});
  const UnionHit hit = ufs.lookup("/f");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 2u);
}

TEST(UnionFs, PurgeTopLayerFreesThePrivateDeltaOnly) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/system/lib/libc.so", 1200, 0);  // COW copy-up
  ufs.write("/data/app.db", 300, 0);
  ufs.unlink("/system/app/base.apk");  // whiteout over the lower file
  EXPECT_EQ(ufs.purge_top_layer(), 1500u);
  EXPECT_EQ(ufs.private_bytes(), 0u);
  EXPECT_EQ(ufs.top().entry_count(), 0u);
  // The shared lower layer shows through again, untouched.
  EXPECT_EQ(ufs.lookup("/system/lib/libc.so").node->size, 1000u);
  EXPECT_TRUE(ufs.exists("/system/app/base.apk"));
  EXPECT_FALSE(ufs.exists("/data/app.db"));
  EXPECT_EQ(ufs.purge_top_layer(), 0u);
}

TEST(UnionFs, CowCopiesUpOnWriteToLowerFile) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_EQ(ufs.cow_bytes(), 0u);
  ufs.write("/system/lib/libc.so", 1100, 0);
  EXPECT_EQ(ufs.cow_bytes(), 1000u);  // original bytes materialized
  EXPECT_EQ(ufs.private_bytes(), 1100u);
}

TEST(UnionFs, WriteToFreshPathNoCow) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/data/new.bin", 77, 0);
  EXPECT_EQ(ufs.cow_bytes(), 0u);
  EXPECT_EQ(ufs.private_bytes(), 77u);
}

TEST(UnionFs, AppendCopiesUpOnce) {
  UnionFs ufs("c1", {make_lower()});
  ufs.append("/system/lib/libm.so", 10, 0);
  EXPECT_EQ(ufs.cow_bytes(), 500u);
  EXPECT_EQ(ufs.lookup("/system/lib/libm.so").node->size, 510u);
  ufs.append("/system/lib/libm.so", 10, 0);
  EXPECT_EQ(ufs.cow_bytes(), 500u);  // second append is already in top
  EXPECT_EQ(ufs.lookup("/system/lib/libm.so").node->size, 520u);
}

TEST(UnionFs, UnlinkLowerFilePlantsWhiteout) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_TRUE(ufs.unlink("/system/app/base.apk"));
  EXPECT_FALSE(ufs.exists("/system/app/base.apk"));
  EXPECT_EQ(ufs.read("/system/app/base.apk", 0), -1);
  // The lower layer itself is untouched (it is shared).
  EXPECT_FALSE(ufs.unlink("/system/app/base.apk"));  // already hidden
}

TEST(UnionFs, UnlinkTopOnlyFileRemovesIt) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/tmp/x", 9, 0);
  EXPECT_TRUE(ufs.unlink("/tmp/x"));
  EXPECT_FALSE(ufs.exists("/tmp/x"));
  EXPECT_EQ(ufs.private_bytes(), 0u);
}

TEST(UnionFs, WriteAfterUnlinkRevivesFile) {
  UnionFs ufs("c1", {make_lower()});
  ufs.unlink("/system/lib/libc.so");
  ufs.write("/system/lib/libc.so", 5, 0);
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 5u);
}

TEST(UnionFs, VisibleBytesUsesUnionSemantics) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_EQ(ufs.visible_bytes(), 3500u);
  ufs.write("/system/lib/libc.so", 100, 0);  // shadows the 1000-byte file
  EXPECT_EQ(ufs.visible_bytes(), 2600u);
  ufs.unlink("/system/app/base.apk");
  EXPECT_EQ(ufs.visible_bytes(), 600u);
}

TEST(UnionFs, NeverAccessedTracking) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_DOUBLE_EQ(ufs.never_accessed_fraction(), 1.0);
  ufs.read("/system/lib/libc.so", 10);
  EXPECT_NEAR(ufs.never_accessed_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(ufs.never_accessed_bytes(), 2500u);
  // Reads of top-layer files count too.
  ufs.write("/data/own.bin", 50, 10);
  ufs.read("/data/own.bin", 11);
  EXPECT_NEAR(ufs.never_accessed_fraction(), 2.0 / 4.0, 1e-9);
}

TEST(UnionFs, SharedLowerLayerIsReusableAcrossMounts) {
  const auto lower = make_lower();
  UnionFs a("a", {lower});
  UnionFs b("b", {lower});
  a.write("/system/lib/libc.so", 1, 0);
  // b still sees the pristine lower file.
  EXPECT_EQ(b.lookup("/system/lib/libc.so").node->size, 1000u);
  EXPECT_EQ(b.private_bytes(), 0u);
}

TEST(UnionFs, ReaddirMergesLayersAndDirectories) {
  auto lower = make_lower();
  UnionFs ufs("c1", {lower});
  ufs.write("/system/lib/libnew.so", 10, 0);
  ufs.write("/data/app.log", 5, 0);
  const auto system = ufs.readdir("/system");
  EXPECT_EQ(system, (std::vector<std::string>{"app", "lib"}));
  const auto lib = ufs.readdir("/system/lib");
  EXPECT_EQ(lib, (std::vector<std::string>{"libc.so", "libm.so",
                                           "libnew.so"}));
  const auto root = ufs.readdir("/");
  EXPECT_EQ(root, (std::vector<std::string>{"data", "system"}));
}

TEST(UnionFs, ReaddirHidesWhiteoutedEntries) {
  UnionFs ufs("c1", {make_lower()});
  ufs.unlink("/system/lib/libm.so");
  const auto lib = ufs.readdir("/system/lib");
  EXPECT_EQ(lib, (std::vector<std::string>{"libc.so"}));
}

TEST(UnionFs, ReaddirOfEmptyOrMissingDirectory) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_TRUE(ufs.readdir("/nonexistent").empty());
}

// Property: a UnionFs over random operations agrees with a flat
// reference model (map path -> size).
class UnionFsModelCheck : public ::testing::TestWithParam<int> {};

TEST_P(UnionFsModelCheck, AgreesWithReferenceModel) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto lower = std::make_shared<Layer>("low");
  std::map<std::string, std::uint64_t> model;
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/f" + std::to_string(i);
    const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    lower->put_file(path, size);
    model[path] = size;
  }
  UnionFs ufs("mut", {lower});
  for (int op = 0; op < 400; ++op) {
    const std::string path =
        "/f" + std::to_string(rng.uniform_int(0, 29));  // some misses
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
      ufs.write(path, size, op);
      model[path] = size;
    } else if (dice < 0.7) {
      const bool removed = ufs.unlink(path);
      EXPECT_EQ(removed, model.erase(path) > 0) << path;
    } else {
      const std::int64_t got = ufs.read(path, op);
      const auto it = model.find(path);
      if (it == model.end()) {
        EXPECT_EQ(got, -1) << path;
      } else {
        EXPECT_EQ(got, static_cast<std::int64_t>(it->second)) << path;
      }
    }
  }
  // Final visibility agrees everywhere.
  std::uint64_t model_bytes = 0;
  for (const auto& [path, size] : model) {
    EXPECT_TRUE(ufs.exists(path)) << path;
    model_bytes += size;
  }
  EXPECT_EQ(ufs.visible_bytes(), model_bytes);
  EXPECT_EQ(ufs.visible_files(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFsModelCheck,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace rattrap::fs
