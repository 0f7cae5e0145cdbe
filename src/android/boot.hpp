// Android boot models: device-style (VM) vs Cloud Android Container.
//
// Fig. 6 of the paper contrasts the two sequences.  A device (and an
// Android-x86 VM) walks power-on → bootloader → kernel+ramdisk → prepare
// file systems → init.  A Cloud Android Container jumps straight to the
// "terminus": the host kernel is shared, the rootfs is pre-built from
// initrd.img before start, and a *modified init* brings up Zygote and the
// services.  The models below emit either a vm::BootStage plan (for the
// hypervisor to execute with virtualization overheads) or a container
// boot-cost breakdown.
#pragma once

#include <cstdint>
#include <vector>

#include "android/services.hpp"
#include "sim/time.hpp"
#include "vm/vm.hpp"

namespace rattrap::android {

/// Which OS build boots.
enum class OsProfile : std::uint8_t {
  kStock,       ///< full Android 4.4 image
  kCustomized,  ///< offloading-only subset with stub services
};

/// Userspace boot components (native speed, before platform overheads).
struct UserspaceBoot {
  sim::SimDuration init_exec = 0;       ///< /init parsing + daemons
  sim::SimDuration zygote_preload = 0;  ///< class/resource preloading
  sim::SimDuration service_start = 0;   ///< system_server service graph
  sim::SimDuration hardware_probe = 0;  ///< device probing (VM/device only)
  std::uint64_t disk_read_bytes = 0;    ///< image bytes read during boot
  std::uint64_t boot_memory = 0;        ///< resident set once booted

  [[nodiscard]] sim::SimDuration cpu_total() const {
    return init_exec + zygote_preload + service_start + hardware_probe;
  }
};

/// Userspace boot for a device-style boot (VM): includes hardware probing
/// and reads the image cold from the virtual disk.  Memoized: computed
/// once per profile.
[[nodiscard]] UserspaceBoot device_userspace_boot(OsProfile profile);

/// Userspace boot inside a container: modified init, no bootloader/kernel
/// stages, no hardware probing; `warm_shared_layer` marks the shared
/// resource layer already page-cached by an earlier container, removing
/// most image reads (an optimized-Rattrap effect).  Memoized: computed
/// once per argument pair.
[[nodiscard]] UserspaceBoot container_userspace_boot(OsProfile profile,
                                                     bool warm_shared_layer);

/// The computations behind the two memoized functions above, rebuilding
/// the init script and service graph on every call.
[[nodiscard]] UserspaceBoot compute_device_userspace_boot(OsProfile profile);
[[nodiscard]] UserspaceBoot compute_container_userspace_boot(
    OsProfile profile, bool warm_shared_layer);

/// Full VM boot plan: firmware POST, bootloader, kernel+ramdisk, fs
/// preparation, then the userspace stages.  Feed to vm::VirtualMachine.
[[nodiscard]] std::vector<vm::BootStage> vm_boot_plan(OsProfile profile);

/// Container boot cost (the android share; container-runtime costs such as
/// namespace creation are added by the container module).
[[nodiscard]] sim::SimDuration container_boot_cost(
    OsProfile profile, bool warm_shared_layer,
    double disk_mb_per_s = 120.0);

}  // namespace rattrap::android
