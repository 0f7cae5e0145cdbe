// Offloading workload interface.
//
// The paper's four benchmark categories (§III-A):
//   OCR       — image tool; compute-intensive with file transfer (Tesseract
//               JNI in the original; template-matching OCR here).
//   ChessGame — game; network-interactive (CuckooChess port; a real
//               alpha-beta engine here).
//   VirusScan — anti-virus; I/O heavy (database search; Aho-Corasick here).
//   Linpack   — math tool; pure computation (LU decomposition here).
//
// Every workload *actually executes* its algorithm and reports abstract
// work units (pixel ops / search nodes / scanned bytes / flops).  The
// platform layer converts units into simulated time via per-platform
// rates, so the compute inside an offloaded task is real while the
// environment around it is modelled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"

/// Pins a kernel's hot entry point to a cache-line boundary.  Without it
/// the kernel's loop alignment, and so its speed, follows the size of
/// whatever code the linker places before it: 32 bytes added to an
/// unrelated file moved run_linpack from offset 0x10 to 0x30 mod 64 and
/// made the linpack kernels up to 1.45x slower on a 4-vCPU Xeon VM.
#define RATTRAP_KERNEL_ENTRY __attribute__((aligned(64)))

namespace rattrap::workloads {

enum class Kind : std::uint8_t {
  kOcr = 0,
  kChess = 1,
  kVirusScan = 2,
  kLinpack = 3,
};

inline constexpr std::size_t kKindCount = 4;

[[nodiscard]] const char* to_string(Kind kind);

/// Work performed by one task execution.
struct WorkUnits {
  std::uint64_t compute = 0;   ///< kind-specific compute units
  std::uint64_t io_bytes = 0;  ///< offloading-I/O bytes touched during run
};

/// A concrete offloadable task instance.
struct TaskSpec {
  Kind kind = Kind::kLinpack;
  std::uint64_t seed = 0;        ///< deterministic input generation
  std::uint32_t size_class = 1;  ///< input scale (see each workload's docs)
  std::uint64_t input_file_bytes = 0;  ///< files shipped with the request
  std::uint64_t param_bytes = 0;       ///< serialized method parameters
  std::uint64_t result_bytes = 0;      ///< result shipped back
  /// Discrete file operations the task issues while executing (VirusScan
  /// opens dozens of files; OCR reads one image).  Each op costs a seek
  /// on a disk-backed offloading I/O path but almost nothing on tmpfs —
  /// the asymmetry Sharing Offloading I/O exploits (§IV-C).
  std::uint32_t io_ops = 0;
  /// Extra control round-trips the session exchanges while the task runs
  /// (game-state sync, progress events). ChessGame "interacts with user
  /// continually, representing workloads with intensive network
  /// communications" (§III-A); each round is a small message both ways.
  std::uint32_t control_rounds = 0;
};

/// Outcome of executing a task.
struct TaskResult {
  WorkUnits units;
  std::uint64_t checksum = 0;  ///< input-determined; for correctness tests
};

/// Static per-app characteristics used by the offloading protocol.
struct AppProfile {
  std::string app_id;          ///< e.g. "com.bench.ocr"
  std::uint64_t apk_bytes = 0; ///< mobile code size pushed to the cloud
  /// Binder/system-service interactions per task (drives driver usage).
  std::uint32_t binder_calls_per_task = 4;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual AppProfile app() const = 0;

  /// Builds a task of the given size class, sampling input parameters
  /// (file sizes, seeds) from `rng`.
  [[nodiscard]] virtual TaskSpec make_task(sim::Rng& rng,
                                           std::uint32_t size_class) const = 0;

  /// Runs the real algorithm for `spec`; deterministic in spec.seed.
  [[nodiscard]] virtual TaskResult execute(const TaskSpec& spec) const = 0;
};

/// Factory for a workload by kind.
[[nodiscard]] std::unique_ptr<Workload> make_workload(Kind kind);

/// All four workloads, in paper order (OCR, Chess, VirusScan, Linpack).
[[nodiscard]] std::vector<std::unique_ptr<Workload>> all_workloads();

/// Executes a task through a process-wide memo keyed by
/// (kind, seed, size_class): replaying the same request stream across
/// platforms (the paper's §VI-D record/replay methodology) runs each real
/// kernel once.
[[nodiscard]] TaskResult execute_task_cached(const TaskSpec& spec);

}  // namespace rattrap::workloads
