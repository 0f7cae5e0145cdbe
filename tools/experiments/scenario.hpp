// Scenario executor: maps one resolved RunSpec onto a PlatformConfig +
// LoadDriverConfig, runs the load to completion, and reduces the result
// to a flat, deterministic metric map the sweep driver evaluates
// criteria against (EXPERIMENTS.md lists every manifest key and every
// emitted metric).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "manifest.hpp"

namespace rattrap::experiments {

/// Outcome of executing one run.  Metrics and info are insertion-ordered
/// so serialized artifacts are byte-stable run to run.
struct RunResult {
  bool ok = false;
  std::string error;  ///< set when !ok (config or execution failure)
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  [[nodiscard]] const double* metric(std::string_view name) const;

  /// Flat key=value lines ("m.<metric>=", "i.<info>=", trailing "ok=1")
  /// — the child→parent result channel; trivially parseable without a
  /// JSON reader.
  [[nodiscard]] std::string to_kv() const;

  /// Rich per-run artifact (params + metrics + info).
  [[nodiscard]] std::string to_json(const RunSpec& spec) const;
};

/// What one run executes: the platform and load configurations a
/// RunSpec maps onto.
struct Scenario {
  core::PlatformConfig platform;
  core::LoadDriverConfig driver;
};

/// Maps `spec` onto `out`.  Returns "" on success, else a diagnostic
/// naming the offending key (unknown keys, bad values, missing trace
/// files) — the sweep driver checks every planned run with this before
/// any executes.
[[nodiscard]] std::string configure(const RunSpec& spec, Scenario& out);

/// Executes `spec` in-process.  Never throws; a config error comes back
/// as !ok with configure()'s diagnostic.
[[nodiscard]] RunResult execute_run(const RunSpec& spec);

/// FNV-1a (the determinism fingerprint used across the repo's tools).
[[nodiscard]] std::uint64_t fingerprint64(std::string_view text);

}  // namespace rattrap::experiments
