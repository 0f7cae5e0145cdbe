#include "workloads/linpack.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace rattrap::workloads {

RATTRAP_KERNEL_ENTRY LinpackOutcome run_linpack(std::size_t n,
                                                std::uint64_t seed) {
  assert(n > 0);
  sim::Rng rng(seed);
  std::vector<double> a(n * n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(-0.5, 0.5);
  for (auto& v : b) v = rng.uniform(-0.5, 0.5);
  const std::vector<double> a0 = a;
  const std::vector<double> b0 = b;

  double a_norm = 0.0;  // infinity norm of A
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += std::fabs(a0[i * n + j]);
    a_norm = std::max(a_norm, row);
  }

  std::vector<std::size_t> pivot(n);

  // LU factorization with partial pivoting (dgefa).
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double maxval = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > maxval) {
        maxval = v;
        p = i;
      }
    }
    pivot[k] = p;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[k * n + j], a[p * n + j]);
      }
      std::swap(b[k], b[p]);
    }
    const double diag = a[k * n + k];
    if (diag == 0.0) continue;  // singular column; random A makes this rare
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = a[i * n + k] / diag;
      a[i * n + k] = mult;
      for (std::size_t j = k + 1; j < n; ++j) {
        a[i * n + j] -= mult * a[k * n + j];
      }
      b[i] -= mult * b[k];
    }
  }

  // Back substitution (dgesl).
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= a[i * n + j] * x[j];
    const double diag = a[i * n + i];
    x[i] = diag != 0.0 ? sum / diag : 0.0;
  }

  // Residual ||A0 x - b0||_inf.
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) dot += a0[i * n + j] * x[j];
    residual = std::max(residual, std::fabs(dot - b0[i]));
  }

  LinpackOutcome out;
  out.residual_norm = residual;
  out.normalized_residual =
      residual / (static_cast<double>(n) * a_norm *
                  std::numeric_limits<double>::epsilon());
  const double nd = static_cast<double>(n);
  out.flops = static_cast<std::uint64_t>(2.0 / 3.0 * nd * nd * nd +
                                         2.0 * nd * nd);
  return out;
}

AppProfile LinpackWorkload::app() const {
  // A tiny math app: the paper's Table II shows Linpack's entire upload is
  // a few hundred KB, most of it code.
  return AppProfile{"com.bench.linpack", 118 * 1024, 3};
}

TaskSpec LinpackWorkload::make_task(sim::Rng& rng,
                                    std::uint32_t size_class) const {
  TaskSpec spec;
  spec.kind = Kind::kLinpack;
  spec.seed = rng();
  spec.size_class = size_class;
  spec.input_file_bytes = 0;
  spec.param_bytes = 640;  // problem size + seed
  spec.result_bytes = 256;  // GFLOPS figure + residual
  return spec;
}

TaskResult LinpackWorkload::execute(const TaskSpec& spec) const {
  assert(spec.kind == Kind::kLinpack);
  const std::size_t n = 160 * spec.size_class;
  const LinpackOutcome out = run_linpack(n, spec.seed);
  TaskResult result;
  result.units.compute = out.flops;
  result.units.io_bytes = 0;
  // The residual check doubles as the correctness witness.
  result.checksum = out.normalized_residual < 100.0 ? 0x11aace50ULL : 0;
  return result;
}

}  // namespace rattrap::workloads
