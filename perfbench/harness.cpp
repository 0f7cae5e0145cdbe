// perfbench_harness — one workload of the repository benchmark.
//
// Drives real core::Platform sessions through the public load-driver API
// (core::run_load_transport) over either transport: the in-process
// LocalSessionTransport, or rpc::ClientTransport against an in-process
// rpc::Server on a loopback socket.  A timing SessionTransport decorator
// wraps either one; every other layer is read from outside through its
// public counters (Platform::metrics(), invariants(), env_count(),
// rpc::Server::rpc_metrics_json()).
//
// One invocation measures the set-up (stream, real kernels, platform,
// rpc connect) several times, runs one reference repeat where the
// workload's simulated-time figures need more sessions than a timed
// repeat holds, then runs timed repeats on fresh platforms until
// --seconds have passed (at least --min-reps).  The timed repeats cycle
// through seeds derived from --seed.  With --trace 1 the cycles alternate
// untraced and traced; traced repeats record the benchmark's own spans
// around every call it makes into the program, keep them in memory and
// write them to --trace-out at exit.
//
//   perfbench_harness --workload warm_reuse --seed 1 --seconds 25 --trace 0
//
// Prints one JSON document on stdout with every set-up's and repeat's
// numbers and correctness gates; perfbench/run.py reduces it to the
// benchmark's metrics.  Exit status: 0 = ran (gates are reported, not
// enforced here), 2 = usage error, 1 = a transport could not be set up
// or the spans could not be written.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "reduce.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "sim/fault.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace rattrap;
using perfbench::percentile;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

// -- Spans --------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into the log, -1 for a root
};

/// In-memory span log of the traced repeats; written out once at exit.
class SpanLog {
 public:
  int open(const char* name, int parent) {
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << '}';
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null (untraced repeats).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : -1) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

  /// Closes the span before the end of its scope; idempotent.
  void end() {
    if (log_ != nullptr) log_->close(id_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int id_;
};

// -- Workloads ----------------------------------------------------------

struct WorkloadSpec {
  core::LoadDriverConfig driver;
  core::AdmissionConfig admission;
  std::string fault_plan;
  bool rpc = false;
};

/// Session counts per workload.  Timed repeats are short (well under a
/// second on a 4-core host) so a run holds dozens of them and the best
/// one is steady; the reference repeat that supplies simulated-time
/// figures is larger where those figures need more sessions to be steady
/// from seed to seed.
struct Sizes {
  std::size_t timed;
  std::size_t reference;
};

std::optional<Sizes> workload_sizes(const std::string& name) {
  if (name == "cold_churn") return Sizes{6000, 6000};
  if (name == "warm_reuse" || name == "rpc_loopback") {
    return Sizes{20000, 20000};
  }
  if (name == "qos_fault_storm") return Sizes{2000, 20000};
  return std::nullopt;
}

/// The workload `name` (one workload_sizes() knows) at `sessions`.
WorkloadSpec make_spec(const std::string& name, std::uint64_t seed,
                       std::size_t sessions) {
  WorkloadSpec spec;
  sim::LoadGenConfig& load = spec.driver.loadgen;
  load.seed = seed;
  load.requests = sessions;
  load.arrival = sim::ArrivalProcess::kPoisson;
  load.rate_per_s = 2.0;
  if (name == "cold_churn") {
    // A fleet of sessions/10 devices: almost every session cold-provisions
    // a CAC and old ones idle out, so provisioning dominates.
    spec.driver.kind = workloads::Kind::kLinpack;
    load.devices =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, sessions / 10));
  } else if (name == "warm_reuse" || name == "rpc_loopback") {
    // 100 devices: sessions reuse warm environments and hit the code
    // cache; the rpc workload is the same config over the wire.
    spec.driver.kind = workloads::Kind::kVirusScan;
    load.devices = 100;
    spec.rpc = name == "rpc_loopback";
  } else {
    // qos_fault_storm: MMPP at 20/s in the calm state with x8 bursts, a
    // mean of 43/s (tools/loadgen --arrival mmpp --rate 20), well past
    // what 50 devices' environments serve, so the accept queues overflow
    // all run long.  Bursts and calm spells are 40x shorter than the
    // loadgen defaults (2 s / 10 s): with the defaults a run holds only a
    // few dozen burst cycles and the simulated percentiles swing by
    // 15-80% from seed to seed.  50 devices rather than 500 because the
    // per-event invariant sweeps scan every environment ever provisioned.
    spec.driver.kind = workloads::Kind::kLinpack;
    load.devices = 50;
    load.arrival = sim::ArrivalProcess::kMmpp;
    load.rate_per_s = 20.0;
    load.burst_factor = 8.0;
    load.mean_burst_s = 0.05;
    load.mean_calm_s = 0.25;
    load.mix = {
        {"gold", 0, 3, 0.2, sim::AdversaryProfile::kNone},
        {"silver", 1, 1, 0.5, sim::AdversaryProfile::kNone},
        {"bulk", 2, 1, 0.3, sim::AdversaryProfile::kNone},
    };
    spec.admission.enabled = true;
    spec.admission.qos.enabled = true;
    spec.fault_plan =
        "net.drop:p=0.05;container.crash:p=0.01;cache.evict:p=0.02";
  }
  return spec;
}

// -- Process memory -----------------------------------------------------

std::uint64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) /
         1024;
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// FNV-1a over the metrics JSON, as tools/loadgen prints it.
std::uint64_t fingerprint(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// -- One repeat's JSON record ---------------------------------------------

class Record {
 public:
  void num(const std::string& key, double value) {
    add(key, obs::json_number(value));
  }
  void count(const std::string& key, std::uint64_t value) {
    add(key, obs::json_number(value));
  }
  void flag(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }
  void str(const std::string& key, const std::string& value) {
    add(key, obs::json_quote(value));
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }

  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += obs::json_quote(key) + ':' + value;
  }
  std::string body_;
};

// -- The timing decorator -------------------------------------------------

/// Times the load driver's calls into a transport.  Untraced it reads the
/// clock a handful of times per run; traced it records one span per call.
class TimedTransport final : public core::SessionTransport {
 public:
  TimedTransport(core::SessionTransport& inner, SpanLog* spans, int parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  core::Result<std::uint64_t> open_session(
      const core::SessionConfig& config) override {
    ScopedSpan span(spans_, "transport.open_session", parent_);
    return inner_.open_session(config);
  }

  void submit(std::uint64_t id,
              const workloads::OffloadRequest& request) override {
    if (submits == 0) first_submit_ns = now_ns();
    ++submits;
    ScopedSpan span(spans_, "transport.submit", parent_);
    inner_.submit(id, request);
  }

  std::vector<core::RequestOutcome> close(std::uint64_t id) override {
    if (close_start_ns == 0) close_start_ns = now_ns();
    ScopedSpan span(spans_, "transport.close", parent_);
    std::vector<core::RequestOutcome> outcomes = inner_.close(id);
    close_end_ns = now_ns();
    return outcomes;
  }

  // What the timed phase's clock readings are derived from.
  std::uint64_t submits = 0;
  std::int64_t first_submit_ns = 0;
  std::int64_t close_start_ns = 0;
  std::int64_t close_end_ns = 0;

 private:
  core::SessionTransport& inner_;
  SpanLog* spans_;
  int parent_;
};

/// Completion-observer probe of a traced repeat: the wall time of every
/// completion, and a timed invariants().run() sweep every kProbeEvery
/// completions.  On the rpc workload it runs on the server's platform
/// worker and is read only after the server has stopped.
struct CompletionProbe {
  static constexpr std::size_t kProbeEvery = 64;
  std::vector<std::int64_t> stamps;
  std::vector<double> sweep_ns;
};

/// Wall per completion in the last decile over the first decile.
double late_early_ratio(const std::vector<std::int64_t>& stamps) {
  const std::size_t decile = stamps.size() / 10;
  if (decile == 0) return 0;
  const double early =
      static_cast<double>(stamps[decile] - stamps[0]);
  const double late = static_cast<double>(stamps.back() -
                                          stamps[stamps.size() - 1 - decile]);
  return early > 0 ? late / early : 0;
}

/// Mean of the last decile over the mean of the first decile.
double late_early_ratio(const std::vector<double>& samples) {
  const std::size_t decile = samples.size() / 10;
  if (decile == 0) return 0;
  double early = 0;
  double late = 0;
  for (std::size_t i = 0; i < decile; ++i) {
    early += samples[i];
    late += samples[samples.size() - 1 - i];
  }
  return early > 0 ? late / early : 0;
}

double counter_of(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Counter* counter = metrics.find_counter(name);
  return counter != nullptr ? static_cast<double>(counter->value()) : 0;
}

double gauge_of(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Gauge* gauge = metrics.find_gauge(name);
  return gauge != nullptr ? gauge->value() : 0;
}

// -- Set-up and repeats -----------------------------------------------------

/// Seeds the timed repeats cycle through.
constexpr std::size_t kSubSeeds = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t sessions = 0;  ///< overrides both sizes (tests)
  std::size_t min_reps = 3;
  std::size_t max_reps = 0;  ///< 0 = until --seconds have passed
  std::string trace_out;
};

/// The objects one repeat drives.  Members are destroyed in reverse:
/// client, server, then the platform they serve.
struct Rig {
  std::unique_ptr<core::Platform> platform;
  std::unique_ptr<core::LocalSessionTransport> local;
  std::unique_ptr<rpc::Server> server;
  std::unique_ptr<rpc::ClientTransport> client;

  core::SessionTransport& transport() {
    return client != nullptr ? static_cast<core::SessionTransport&>(*client)
                             : *local;
  }

  /// Stops the server and releases everything in dependency order.
  void reset() {
    client.reset();
    server.reset();
    local.reset();
    platform.reset();
  }
};

/// A fresh platform and its transport.  `observer` (may be empty) is
/// installed before the rpc server takes the platform over.  False when
/// the rpc transport could not be set up.
bool make_rig(const WorkloadSpec& spec,
              std::function<void(const core::RequestOutcome&)> observer,
              Rig& rig) {
  core::PlatformConfig config =
      core::make_config(core::PlatformKind::kRattrap);
  config.seed = spec.driver.loadgen.seed;
  config.admission = spec.admission;
  if (!spec.fault_plan.empty()) {
    config.fault_plan = *sim::FaultPlan::parse(spec.fault_plan);
  }
  rig.platform = std::make_unique<core::Platform>(std::move(config));
  if (observer) rig.platform->set_completion_observer(std::move(observer));
  if (!spec.rpc) {
    rig.local = std::make_unique<core::LocalSessionTransport>(*rig.platform);
    return true;
  }
  rpc::ServerConfig server_config;
  server_config.io_threads = 1;
  rig.server = std::make_unique<rpc::Server>(*rig.platform, server_config);
  if (!rig.server->start()) return false;
  rig.client = rpc::ClientTransport::connect("127.0.0.1", rig.server->port());
  return rig.client != nullptr;
}

/// The distinct task specs of a workload's request stream.
std::vector<workloads::TaskSpec> distinct_tasks(
    const WorkloadSpec& spec,
    const std::vector<workloads::OffloadRequest>& stream) {
  std::vector<workloads::TaskSpec> distinct;
  for (const workloads::OffloadRequest& request : stream) {
    if (distinct.size() >= spec.driver.task_variants) break;
    const bool seen =
        std::any_of(distinct.begin(), distinct.end(),
                    [&request](const workloads::TaskSpec& task) {
                      return task.seed == request.task.seed &&
                             task.size_class == request.task.size_class;
                    });
    if (!seen) distinct.push_back(request.task);
  }
  return distinct;
}

/// One full set-up as a user pays it: the request stream, the real
/// kernels of its distinct tasks (run for real every time, then through
/// the process memo the platform reads), a platform and, for rpc, the
/// server and its client connection.
std::optional<std::string> measure_setup(const WorkloadSpec& spec,
                                         SpanLog* spans) {
  Record record;
  ScopedSpan setup_span(spans, "setup", -1);
  const std::int64_t start = now_ns();
  std::vector<workloads::OffloadRequest> stream;
  {
    ScopedSpan span(spans, "loadgen.make_load_stream", setup_span.id());
    stream = core::make_load_stream(spec.driver);
  }
  const std::int64_t stream_end = now_ns();
  bool memo_agrees = true;
  {
    ScopedSpan span(spans, "workloads.execute", setup_span.id());
    const auto workload = workloads::make_workload(spec.driver.kind);
    for (const workloads::TaskSpec& task : distinct_tasks(spec, stream)) {
      memo_agrees = memo_agrees &&
                    workload->execute(task).checksum ==
                        workloads::execute_task_cached(task).checksum;
    }
  }
  const std::int64_t exec_end = now_ns();
  Rig rig;
  bool connected = false;
  {
    ScopedSpan span(spans, "core.Platform+transport", setup_span.id());
    connected = make_rig(spec, {}, rig);
  }
  const std::int64_t end = now_ns();
  rig.reset();
  if (!connected) return std::nullopt;
  record.num("setup_s", seconds_between(start, end));
  record.num("loadgen.stream_s", seconds_between(start, stream_end));
  record.num("workloads.exec_s", seconds_between(stream_end, exec_end));
  record.num("platform.init_s", seconds_between(exec_end, end));
  record.flag("gate.kernel_memo", memo_agrees);
  return record.json();
}

/// Runs one repeat on a fresh platform and returns its record; nullopt
/// when the rpc transport could not be set up.
std::optional<std::string> run_rep(const WorkloadSpec& spec, std::size_t rep,
                                   SpanLog* spans) {
  Record record;
  const std::size_t sessions = spec.driver.loadgen.requests;
  record.count("rep", rep);
  record.count("seed", spec.driver.loadgen.seed);
  record.count("sessions", sessions);
  record.flag("traced", spans != nullptr);
  ScopedSpan rep_span(spans, "rep", -1);
  const std::uint64_t rss_before_kb = current_rss_kb();

  CompletionProbe probe;  // outlives the platform whose observer fills it
  Rig rig;
  {
    ScopedSpan span(spans, "core.Platform+transport", rep_span.id());
    std::function<void(const core::RequestOutcome&)> observer;
    if (spans != nullptr) {
      probe.stamps.reserve(sessions);
      observer = [&probe, &rig](const core::RequestOutcome&) {
        probe.stamps.push_back(now_ns());
        if (probe.stamps.size() % CompletionProbe::kProbeEvery != 0) return;
        core::Platform& platform = *rig.platform;
        const std::int64_t start = now_ns();
        (void)platform.invariants().run(platform.server().simulator().now());
        probe.sweep_ns.push_back(static_cast<double>(now_ns() - start));
      };
    }
    if (!make_rig(spec, std::move(observer), rig)) return std::nullopt;
  }
  core::Platform& platform = *rig.platform;

  // Timed phase: open_session → submit → close → reduce.
  ScopedSpan drive_span(spans, "core.run_load_transport", rep_span.id());
  TimedTransport timed(rig.transport(), spans, drive_span.id());
  const std::int64_t drive_start = now_ns();
  const core::LoadSummary summary =
      core::run_load_transport(timed, spec.driver);
  const std::int64_t drive_end = now_ns();
  drive_span.end();
  const double drive_s = seconds_between(drive_start, drive_end);
  record.num("drive_s", drive_s);
  record.num("session.submit_ns",
             timed.submits == 0
                 ? 0
                 : static_cast<double>(timed.close_start_ns -
                                       timed.first_submit_ns) /
                       static_cast<double>(timed.submits));
  record.num("transport.close_s",
             seconds_between(timed.close_start_ns, timed.close_end_ns));
  record.num("summary.reduce_s",
             seconds_between(timed.close_end_ns, drive_end));

  // Result polls after the run: one round trip each over the wire; in
  // process, batches of 64 lookups-and-copies per clock reading.
  std::vector<double> rtt_ns;
  std::uint64_t polls = 0;
  std::uint64_t answered = 0;
  std::uint64_t poll_seq = spec.driver.loadgen.seed;
  const auto next_seq = [&poll_seq, sessions]() {
    poll_seq = poll_seq * 6364136223846793005ULL + 1442695040888963407ULL;
    return (poll_seq >> 17) % sessions;
  };
  {
    ScopedSpan span(spans, "transport.result_polls", rep_span.id());
    if (rig.client != nullptr) {
      constexpr std::size_t kPolls = 2000;
      rtt_ns.reserve(kPolls);
      for (std::size_t i = 0; i < kPolls; ++i) {
        const std::uint64_t seq = next_seq();
        const std::int64_t start = now_ns();
        const std::optional<core::RequestOutcome> outcome =
            rig.client->result(seq);
        rtt_ns.push_back(static_cast<double>(now_ns() - start));
        ++polls;
        answered += outcome && outcome->request.sequence == seq ? 1 : 0;
      }
    } else {
      constexpr std::size_t kBatches = 1024;
      constexpr std::size_t kBatch = 64;
      rtt_ns.reserve(kBatches);
      for (std::size_t b = 0; b < kBatches; ++b) {
        const std::int64_t start = now_ns();
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::uint64_t seq = next_seq();
          const core::RequestOutcome* found = platform.result(seq);
          if (found == nullptr) continue;
          const core::RequestOutcome copy = *found;
          answered += copy.request.sequence == seq ? 1 : 0;
        }
        polls += kBatch;
        rtt_ns.push_back(static_cast<double>(now_ns() - start) /
                         static_cast<double>(kBatch));
      }
    }
  }
  std::sort(rtt_ns.begin(), rtt_ns.end());
  record.num("transport.result_rtt_p50_us", percentile(rtt_ns, 0.50) / 1e3);
  record.num("transport.result_rtt_p99_us", percentile(rtt_ns, 0.99) / 1e3);
  record.count("result_rtt.samples", polls);
  record.flag("gate.result_polls", answered == polls);

  std::string metrics_json;
  {
    ScopedSpan span(spans, "transport.fetch_metrics", rep_span.id());
    const std::int64_t start = now_ns();
    metrics_json = rig.client != nullptr ? rig.client->fetch_metrics()
                                         : platform.metrics().to_json();
    record.num("transport.fetch_metrics_ms",
               static_cast<double>(now_ns() - start) / 1e6);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fingerprint(metrics_json)));
  record.str("fingerprint", hex);

  if (rig.client != nullptr) {
    record.flag("gate.transport", rig.client->ok() && !metrics_json.empty());
    rig.client.reset();
    rig.server->stop();
    record.raw("rpc_metrics", rig.server->rpc_metrics_json());
  }

  // Everything below reads the platform after the run, single-threaded.
  // A traced repeat's completion probe ran the invariant sweeps mid-event,
  // where a transient inconsistency is legal, so only untraced repeats
  // gate on the checker's count.
  if (spans == nullptr) {
    record.flag("gate.invariants",
                platform.invariants().total_violations() == 0);
  }
  std::vector<const core::RequestOutcome*> outcomes(sessions);
  for (std::size_t seq = 0; seq < sessions; ++seq) {
    outcomes[seq] = platform.result(seq);
  }
  const perfbench::SimStats sim = perfbench::reduce_outcomes(outcomes);
  const double offered = static_cast<double>(sessions);

  // Correctness gates (run.py fails the run on any false one).
  bool summary_identity =
      summary.offered == summary.completed + summary.rejected &&
      summary.offered == sessions;
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const core::ClassLoadStats& stats = summary.for_class(klass);
    const perfbench::ClassCounts& own =
        sim.by_class[core::qos::class_index(klass)];
    summary_identity = summary_identity &&
                       stats.offered == stats.completed + stats.rejected &&
                       stats.offered == own.offered &&
                       stats.completed == own.completed;
  }
  record.flag("gate.accounting",
              summary_identity && sim.accounting_ok() &&
                  summary.completed == sim.completed &&
                  sim.transport_failures == 0);

  record.count("offered", sim.offered);
  record.count("stranded", sim.stranded);
  record.count("transport_failures", sim.transport_failures);
  record.num("sessions_per_s",
             static_cast<double>(sim.offered - sim.transport_failures) /
                 drive_s);
  record.num("completed_share", static_cast<double>(sim.completed) / offered);
  record.num("failed_share", sim.failed_share());
  record.num("sim_response_p50_ms", sim.response_p50_ms);
  record.num("sim_response_p99_ms", sim.response_p99_ms);
  record.count("sim_response.samples", sim.response_samples);
  record.num("sim_top_class_p99_ms", sim.top_class_p99_ms);
  record.num("sim_energy_mj_mean", sim.energy_mj_mean);
  const std::pair<const char*, const perfbench::PhaseStat*> phases[] = {
      {"connection", &sim.connection},   {"preparation", &sim.preparation},
      {"transfer", &sim.transfer},       {"computation", &sim.computation},
      {"queue_wait", &sim.queue_wait}};
  for (const auto& [name, stat] : phases) {
    record.num(std::string("phase.") + name + "_ms", stat->mean_ms);
    record.num(std::string("phase.") + name + "_p99_ms", stat->p99_ms);
  }
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    record.num(std::string("qos.queue.wait_p99_ms.") +
                   core::qos::to_string(klass),
               sim.by_class[core::qos::class_index(klass)].queue_wait_p99_ms);
  }

  // Layer counters, read from outside.
  const obs::MetricsRegistry& m = platform.metrics();
  record.num("env.provisions_per_session",
             counter_of(m, "env.provisioned") / offered);
  record.num("elastic.warm_hit_ratio", gauge_of(m, "elastic.warm_hit_ratio"));
  record.num("envdb.added", counter_of(m, "envdb.added"));
  record.num("envdb.retired", counter_of(m, "envdb.retired"));
  record.count("env_count", platform.env_count());
  record.num("elastic.layers.pinned_bytes",
             gauge_of(m, "elastic.layers.pinned_bytes"));
  record.num("dispatcher.affinity_hit_rate",
             gauge_of(m, "dispatcher.affinity.hit_rate"));
  const double wh_hits = counter_of(m, "warehouse.hits");
  const double wh_lookups = wh_hits + counter_of(m, "warehouse.misses");
  record.num("warehouse.hit_ratio", wh_lookups > 0 ? wh_hits / wh_lookups : 0);
  record.num("warehouse.evictions", counter_of(m, "warehouse.evictions"));
  record.num("tmpfs.staged", counter_of(m, "tmpfs.staged.requests"));
  record.num("tmpfs.stage_rejected", counter_of(m, "tmpfs.stage_rejected"));
  record.num("tmpfs.peak_bytes", gauge_of(m, "tmpfs.peak_bytes"));
  record.num("net.up_bytes_per_session",
             counter_of(m, "net.up.bytes") / offered);
  for (const std::string reason :
       {"queue_full", "rate_limited", "overloaded", "tenant_quota"}) {
    record.num("admission.rejected." + reason,
               counter_of(m, ("admission.rejected." + reason).c_str()));
  }
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const std::string suffix = core::qos::to_string(klass);
    record.num("qos.shed." + suffix,
               counter_of(m, ("qos.shed.queue_full." + suffix).c_str()));
  }
  record.num("qos.promotions", counter_of(m, "qos.promotions"));
  record.num("admission.queue.peak", gauge_of(m, "admission.queue.peak"));
  record.count("invariants.checks_run",
               platform.invariants().checks_run() - probe.sweep_ns.size());
  record.num("monitor.crashes.detected",
             counter_of(m, "monitor.crashes.detected"));
  record.count("recovery.redispatched", sim.redispatched);
  record.count("net.connect_retries", sim.connect_retries);

  if (spans != nullptr) {
    // The drain runs inside the first close(): from its start to the last
    // completion the observer saw.
    const double drain_s =
        probe.stamps.empty()
            ? 0
            : seconds_between(timed.close_start_ns, probe.stamps.back());
    record.num("session.drain_s", drain_s);
    record.num("session.drain_ns_per_session",
               probe.stamps.empty()
                   ? 0
                   : drain_s * 1e9 / static_cast<double>(probe.stamps.size()));
    record.num("session.drain_late_early_ratio",
               late_early_ratio(probe.stamps));
    record.num("invariants.sweep_us", perfbench::mean(probe.sweep_ns) / 1e3);
    record.num("invariants.sweep_late_early_ratio",
               late_early_ratio(probe.sweep_ns));
  }

  record.num("rss.per_session_kb",
             (static_cast<double>(current_rss_kb()) -
              static_cast<double>(rss_before_kb)) /
                 offered);
  rig.reset();
  // Hand freed memory back so the next repeat's RSS baseline is clean.
  ::malloc_trim(0);
  return record.json();
}

bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::size_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds >= 0)) {
        return false;
      }
    } else if (!parse_size(value, number)) {
      return false;
    } else if (arg == "--seed") {
      options.seed = number;
    } else if (arg == "--trace") {
      if (number > 1) return false;
      options.trace = number == 1;
    } else if (arg == "--sessions") {
      options.sessions = number;
    } else if (arg == "--min-reps") {
      options.min_reps = number;
    } else if (arg == "--max-reps") {
      options.max_reps = number;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1] [--sessions N] [--min-reps N] "
                 "[--max-reps N] [--trace-out PATH]\n");
    return 2;
  }
  const std::optional<Sizes> sizes = workload_sizes(options.workload);
  if (!sizes) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  const std::size_t timed_n =
      options.sessions > 0 ? options.sessions : sizes->timed;
  const std::size_t reference_n =
      options.sessions > 0 ? options.sessions : sizes->reference;
  const WorkloadSpec spec = make_spec(options.workload, options.seed, timed_n);
  // Timed repeats cycle through seeds derived from --seed (the first is
  // --seed itself): what a repeat costs varies from seed to seed, by 20%
  // on qos_fault_storm, and a run's figure averages that out.
  std::vector<WorkloadSpec> timed_specs;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    timed_specs.push_back(make_spec(
        options.workload, options.seed + k * 0x9E3779B97F4A7C15ULL, timed_n));
  }
  SpanLog spans;
  SpanLog* traced = options.trace ? &spans : nullptr;
  const auto fail_transport = []() {
    std::fprintf(stderr, "rpc: cannot set up the loopback transport\n");
    return 1;
  };

  // Set-up is measured twice here (the first also fills the kernel memo)
  // and once more at the start of every cycle of timed repeats, so its
  // median spans the whole run.
  std::vector<std::string> setups;
  const auto add_setup = [&spec, &setups, traced]() {
    std::optional<std::string> setup = measure_setup(spec, traced);
    if (setup) setups.push_back(std::move(*setup));
    return setup.has_value();
  };
  if (!add_setup() || !add_setup()) return fail_transport();

  // The derived seeds' kernels go into the memo too, untimed, so no timed
  // repeat runs a kernel.
  for (const WorkloadSpec& timed_spec : timed_specs) {
    const auto stream = core::make_load_stream(timed_spec.driver);
    for (const workloads::TaskSpec& task : distinct_tasks(timed_spec, stream)) {
      (void)workloads::execute_task_cached(task);
    }
  }

  // Simulated-time figures need more sessions than a short timed repeat
  // holds on some workloads; one untimed reference repeat supplies them.
  std::vector<std::string> reps;
  if (reference_n != timed_n) {
    std::optional<std::string> record = run_rep(
        make_spec(options.workload, options.seed, reference_n), 0, traced);
    if (!record) return fail_transport();
    reps.push_back(std::move(*record));
  }

  const std::int64_t start = now_ns();
  double last_rep_s = 0;
  for (std::size_t rep = 0;; ++rep) {
    if (options.max_reps > 0 && rep >= options.max_reps) break;
    // Start another repeat only if it should end within --seconds.
    const double elapsed = seconds_between(start, now_ns());
    if (rep >= options.min_reps && elapsed + last_rep_s > options.seconds) {
      break;
    }
    if (rep % kSubSeeds == 0 && rep > 0 && !add_setup()) {
      return fail_transport();
    }
    // Traced runs alternate untraced and traced cycles over the seeds, so
    // the tracing overhead is measured on the same inputs and under the
    // same conditions.
    const bool trace_this = options.trace && rep / kSubSeeds % 2 == 1;
    std::optional<std::string> record =
        run_rep(timed_specs[rep % kSubSeeds], reps.size(),
                trace_this ? &spans : nullptr);
    if (!record) return fail_transport();
    reps.push_back(std::move(*record));
    last_rep_s = seconds_between(start, now_ns()) - elapsed;
  }

  if (options.trace && !options.trace_out.empty() &&
      !spans.write(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return 1;
  }
  std::printf(
      "{\"workload\":%s,\"seed\":%s,\"subseeds\":%zu,\"sessions\":%s,"
      "\"reference_sessions\":%s,\"peak_rss_kb\":%s,\"setups\":%s,"
      "\"reps\":%s}\n",
      obs::json_quote(options.workload).c_str(),
      obs::json_number(options.seed).c_str(), kSubSeeds,
      obs::json_number(static_cast<std::uint64_t>(timed_n)).c_str(),
      obs::json_number(static_cast<std::uint64_t>(reference_n)).c_str(),
      obs::json_number(peak_rss_kb()).c_str(), json_list(setups).c_str(),
      json_list(reps).c_str());
  return 0;
}
