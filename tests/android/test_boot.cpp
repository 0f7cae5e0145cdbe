#include "android/boot.hpp"

#include <gtest/gtest.h>

namespace rattrap::android {
namespace {

TEST(Boot, ContainerBootSkipsHardwareProbe) {
  const UserspaceBoot device = device_userspace_boot(OsProfile::kStock);
  const UserspaceBoot container =
      container_userspace_boot(OsProfile::kStock, false);
  EXPECT_GT(device.hardware_probe, 0);
  EXPECT_EQ(container.hardware_probe, 0);
}

TEST(Boot, ContainerInitIsCheaperThanDeviceInit) {
  const UserspaceBoot device = device_userspace_boot(OsProfile::kStock);
  const UserspaceBoot container =
      container_userspace_boot(OsProfile::kStock, false);
  EXPECT_LT(container.init_exec, device.init_exec);
}

TEST(Boot, CustomizedProfileBootsFasterEverywhere) {
  const UserspaceBoot stock =
      container_userspace_boot(OsProfile::kStock, false);
  const UserspaceBoot customized =
      container_userspace_boot(OsProfile::kCustomized, false);
  EXPECT_LT(customized.cpu_total(), stock.cpu_total());
  EXPECT_LT(customized.disk_read_bytes, stock.disk_read_bytes);
  EXPECT_LT(customized.boot_memory, stock.boot_memory);
}

TEST(Boot, WarmSharedLayerRemovesMostReads) {
  const UserspaceBoot cold =
      container_userspace_boot(OsProfile::kCustomized, false);
  const UserspaceBoot warm =
      container_userspace_boot(OsProfile::kCustomized, true);
  EXPECT_LT(warm.disk_read_bytes, cold.disk_read_bytes);
  EXPECT_EQ(warm.cpu_total(), cold.cpu_total());
}

TEST(Boot, BootMemoryMatchesTableOne) {
  // Table I: 110.56 MB stock container, 96.35 MB optimized.
  const double stock_mb =
      static_cast<double>(
          container_userspace_boot(OsProfile::kStock, false).boot_memory) /
      (1024.0 * 1024.0);
  const double custom_mb =
      static_cast<double>(
          container_userspace_boot(OsProfile::kCustomized, false)
              .boot_memory) /
      (1024.0 * 1024.0);
  EXPECT_NEAR(stock_mb, 110.56, 3.0);
  EXPECT_NEAR(custom_mb, 96.35, 2.0);
}

void expect_same_boot(const UserspaceBoot& a, const UserspaceBoot& b) {
  EXPECT_EQ(a.init_exec, b.init_exec);
  EXPECT_EQ(a.zygote_preload, b.zygote_preload);
  EXPECT_EQ(a.service_start, b.service_start);
  EXPECT_EQ(a.hardware_probe, b.hardware_probe);
  EXPECT_EQ(a.disk_read_bytes, b.disk_read_bytes);
  EXPECT_EQ(a.boot_memory, b.boot_memory);
}

TEST(Boot, MemoizedBootsEqualFreshlyComputedOnes) {
  for (const OsProfile profile : {OsProfile::kStock, OsProfile::kCustomized}) {
    SCOPED_TRACE(profile == OsProfile::kStock ? "stock" : "customized");
    for (int call = 0; call < 2; ++call) {  // first fill, then table hit
      expect_same_boot(device_userspace_boot(profile),
                       compute_device_userspace_boot(profile));
      for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        expect_same_boot(container_userspace_boot(profile, warm),
                         compute_container_userspace_boot(profile, warm));
      }
    }
  }
}

TEST(Boot, VmPlanWalksDeviceStages) {
  const auto plan = vm_boot_plan(OsProfile::kStock);
  ASSERT_GE(plan.size(), 6u);
  EXPECT_EQ(plan.front().name, "firmware-post");
  // A device boot loads the kernel and ramdisk; a container never does
  // (Fig. 6) — the stage must exist in the VM plan.
  bool has_kernel_stage = false;
  for (const auto& stage : plan) {
    if (stage.name == "kernel+ramdisk") has_kernel_stage = true;
  }
  EXPECT_TRUE(has_kernel_stage);
}

TEST(Boot, VmPlanCpuDominatedByUserspace) {
  const auto plan = vm_boot_plan(OsProfile::kStock);
  sim::SimDuration firmware = 0, services = 0;
  for (const auto& stage : plan) {
    if (stage.name == "firmware-post") firmware = stage.cpu_time;
    if (stage.name == "services") services = stage.cpu_time;
  }
  EXPECT_GT(services, firmware);
}

TEST(Boot, ContainerBootCostOrdering) {
  // customized-warm < customized-cold < stock: the Table I ordering.
  const auto warm = container_boot_cost(OsProfile::kCustomized, true);
  const auto cold = container_boot_cost(OsProfile::kCustomized, false);
  const auto stock = container_boot_cost(OsProfile::kStock, false);
  EXPECT_LT(warm, cold);
  EXPECT_LT(cold, stock);
}

}  // namespace
}  // namespace rattrap::android
