#include "android/boot.hpp"

#include <array>

#include "android/image_profile.hpp"
#include "android/init_rc.hpp"

namespace rattrap::android {
namespace {

constexpr std::uint64_t kMiBc = 1024ull * 1024;

// Hardware probe costs by class on emulated/real devices: emulated probes
// run into timeouts (the big reason Android-x86-in-VirtualBox boots take
// tens of seconds).
sim::SimDuration probe_cost(const std::vector<ServiceSpec>& services) {
  sim::SimDuration sum = 0;
  for (const auto& spec : services) {
    switch (spec.klass) {
      case ServiceClass::kHardware:
        sum += sim::from_millis(600);
        break;
      case ServiceClass::kUi:
        sum += sim::from_millis(420);
        break;
      case ServiceClass::kTelephony:
        sum += sim::from_millis(700);
        break;
      default:
        break;
    }
  }
  return sum;
}

std::uint64_t baseline_memory() {
  // init + daemons + zygote process overhead besides the preload heap.
  return 24 * kMiBc;
}

}  // namespace

UserspaceBoot device_userspace_boot(OsProfile profile) {
  static const std::array<UserspaceBoot, 2> table = {
      compute_device_userspace_boot(OsProfile::kStock),
      compute_device_userspace_boot(OsProfile::kCustomized)};
  return table[profile == OsProfile::kStock ? 0 : 1];
}

UserspaceBoot container_userspace_boot(OsProfile profile,
                                       bool warm_shared_layer) {
  static const std::array<UserspaceBoot, 4> table = {
      compute_container_userspace_boot(OsProfile::kStock, false),
      compute_container_userspace_boot(OsProfile::kStock, true),
      compute_container_userspace_boot(OsProfile::kCustomized, false),
      compute_container_userspace_boot(OsProfile::kCustomized, true)};
  return table[(profile == OsProfile::kStock ? 0 : 2) +
               (warm_shared_layer ? 1 : 0)];
}

UserspaceBoot compute_device_userspace_boot(OsProfile profile) {
  const bool stock = profile == OsProfile::kStock;
  const auto& services =
      stock ? stock_services() : customized_services();
  const ZygotePreload preload =
      stock ? stock_preload() : customized_preload();
  UserspaceBoot boot;
  // The stock init walks the full init.rc (mounts, firmware, hardware
  // init); the customized build drops some hardware blocks even on a
  // device, hence the reduction.
  boot.init_exec = stock_init_script().total_cost() +
                   sim::from_millis(stock ? 0 : -160);
  boot.zygote_preload = preload.duration;
  boot.service_start = sequential_start_cost(services);
  boot.hardware_probe = probe_cost(services);
  boot.disk_read_bytes = stock ? 352 * kMiBc : 118 * kMiBc;
  boot.boot_memory =
      baseline_memory() + preload.memory + total_memory(services);
  return boot;
}

UserspaceBoot compute_container_userspace_boot(OsProfile profile,
                                               bool warm_shared_layer) {
  const bool stock = profile == OsProfile::kStock;
  const auto& services =
      stock ? stock_services() : customized_services();
  const ZygotePreload preload =
      stock ? stock_preload() : customized_preload();
  UserspaceBoot boot;
  // The modified init executes the containerized script — fstab
  // mounting, firmware loading and hardware init dropped (§IV-B2) — plus
  // ueventd/property-service bring-up, which the stock rootfs makes
  // heavier (more services, more properties).
  boot.init_exec = containerize(stock_init_script()).total_cost() +
                   sim::from_millis(stock ? 150 : 50);
  boot.zygote_preload = preload.duration;
  boot.service_start = sequential_start_cost(services);
  boot.hardware_probe = 0;  // no devices to probe behind the shared kernel
  boot.disk_read_bytes = warm_shared_layer
                             ? 6 * kMiBc  // private delta only; rest cached
                             : (stock ? 260 * kMiBc : 30 * kMiBc);
  boot.boot_memory =
      baseline_memory() + preload.memory + total_memory(services);
  return boot;
}

std::vector<vm::BootStage> vm_boot_plan(OsProfile profile) {
  const UserspaceBoot userspace = device_userspace_boot(profile);
  std::vector<vm::BootStage> plan;
  plan.push_back({"firmware-post", sim::from_millis(1150), 0});
  plan.push_back({"bootloader", sim::from_millis(760), 16 * kMiBc});
  plan.push_back(
      {"kernel+ramdisk", sim::from_millis(1950), 24 * kMiBc});
  plan.push_back({"mount-rootfs", sim::from_millis(980), 64 * kMiBc});
  plan.push_back({"init", userspace.init_exec, 8 * kMiBc});
  plan.push_back({"zygote-preload", userspace.zygote_preload,
                  userspace.disk_read_bytes / 2});
  plan.push_back({"services", userspace.service_start + userspace.hardware_probe,
                  userspace.disk_read_bytes / 2});
  return plan;
}

sim::SimDuration container_boot_cost(OsProfile profile,
                                     bool warm_shared_layer,
                                     double disk_mb_per_s) {
  const UserspaceBoot boot =
      container_userspace_boot(profile, warm_shared_layer);
  const double read_s = static_cast<double>(boot.disk_read_bytes) /
                        (disk_mb_per_s * 1024.0 * 1024.0);
  return boot.cpu_total() + sim::from_seconds(read_s);
}

}  // namespace rattrap::android
