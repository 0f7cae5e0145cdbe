// Platform facade: the three cloud platforms the paper evaluates.
//
//   VmCloud           — Android-x86 in VirtualBox, 1 vCPU / 512 MB per VM.
//   RattrapWithoutOpt — containers replace VMs, but no OS customization,
//                       no Shared Resource Layer, no code cache (§VI-A).
//   Rattrap           — the full system.
//
// A Platform instance owns a CloudServer and an event-driven offload
// engine; feeding it a replayable request stream produces per-request
// phase breakdowns, traffic accounts, energy figures and the server-load
// timelines — everything the evaluation section charts.
//
// Clients talk to the engine through Session handles (open_session →
// submit → result/close): a session carries the QoS identity — tenant,
// priority class, DRR weight, deadline — that the admission front door
// schedules on (docs/QOS.md).  The legacy begin_run / submit /
// finish_run trio survives as thin wrappers over one default session.
#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "android/app.hpp"
#include "android/classloader.hpp"
#include "container/registry.hpp"
#include "core/admission.hpp"
#include "core/cac.hpp"
#include "core/dispatcher.hpp"
#include "core/elastic/lifecycle.hpp"
#include "core/elastic/pool_controller.hpp"
#include "core/invariant.hpp"
#include "core/offload.hpp"
#include "core/qos/qos.hpp"
#include "core/server.hpp"
#include "device/client.hpp"
#include "device/device.hpp"
#include "net/connection.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/arena.hpp"
#include "sim/fault.hpp"

namespace rattrap::core {

enum class PlatformKind : std::uint8_t {
  kVmCloud,
  kRattrapWithoutOpt,
  kRattrap,
};

[[nodiscard]] const char* to_string(PlatformKind kind);

/// One scheduled device handoff: at virtual time `at` the fleet's radio
/// becomes `to` (the paper's per-radio cost models follow — §VI-A link
/// parameters and the PowerTutor radio profiles).  `outage` > 0 models a
/// hard handover: connectivity is gone for that long and sessions mid
/// radio operation stall until the new radio attaches.
struct HandoffEvent {
  sim::SimTime at = 0;
  net::LinkConfig to;
  sim::SimDuration outage = 0;
};

struct PlatformConfig {
  PlatformKind kind = PlatformKind::kRattrap;
  net::LinkConfig link = net::lan_wifi();
  std::uint64_t seed = 1;

  // Feature flags (derived from `kind` by make_config; individually
  // overridable for the ablation benches).
  bool container_backing = true;    ///< containers vs VMs
  bool customized_os = true;        ///< stripped image + stub services
  bool shared_resource_layer = true;///< shared RO system layer
  bool sharing_offload_io = true;   ///< shared tmpfs for offload files
  bool code_cache = true;           ///< App Warehouse
  bool dispatcher_affinity = true;  ///< AID → CID routing

  /// Idle environments are reclaimed (stopped, memory freed) after this
  /// long without work — the cloud cannot keep per-user runtimes resident
  /// forever (§III-B: pre-loading "would inevitably reduce the server
  /// resource utilization"). 0 disables reclamation.
  sim::SimDuration env_idle_timeout = 300 * sim::kSecond;

  /// Full calibration override (server cores, rates, disk, overheads) —
  /// how researchers model different hardware (e.g. an edge cloudlet vs
  /// a datacenter server). Unset keeps default_calibration().
  std::optional<Calibration> calibration;

  /// Overrides the shared offloading-I/O tmpfs capacity (bytes);
  /// 0 keeps the calibration default. Small values force the staging
  /// fallback path (offload files spill to disk when memory is full).
  std::uint64_t tmpfs_capacity_override = 0;

  /// Client-side adaptive offloading decision (the §II "offloading
  /// decision" half of the mechanism): after a few exploratory offloads
  /// per app, requests run locally whenever the device's EWMA of remote
  /// responses exceeds its EWMA of local execution times.
  bool adaptive_offloading = false;

  /// Environments pre-booted at t=0 and handed to the first devices that
  /// ask. Pre-loading hides the cold start but holds memory the whole
  /// time — the §III-B tradeoff the warm-pool ablation quantifies.
  /// Warm-pool environments are exempt from idle reclamation until first
  /// use.  Legacy knob: ignored when `elastic.mode` is not kDisabled —
  /// the PoolController owns the pool then (docs/ELASTIC.md).
  std::uint32_t warm_pool = 0;

  /// Elastic capacity manager: lifecycle-managed warm pool with a
  /// static-replenishing or forecast-driven target, hysteretic
  /// drain-based scale-down and a memory budget (docs/ELASTIC.md).
  elastic::ElasticConfig elastic;

  // -- Fault injection (docs/FAULTS.md) --------------------------------

  /// Fault schedule evaluated during run(); empty = no faults. Build it
  /// programmatically or with sim::FaultPlan::parse("net.drop:p=0.05;…").
  sim::FaultPlan fault_plan;

  /// Evaluate the cross-component invariants after every simulator event
  /// (active only while a fault plan is installed, or with
  /// force_invariants).
  bool check_invariants = true;

  /// Crash recovery: the Monitor's health sweep detects a dead
  /// environment and the Dispatcher re-dispatches its sessions to a
  /// fresh one. Disabling this strands those sessions on a dead CID —
  /// which the invariant harness must catch.
  bool crash_recovery = true;

  /// Re-dispatch budget per session (crashed environments); exceeded ⇒
  /// the request is rejected.
  std::uint32_t max_redispatch = 3;

  /// Connection-attempt budget under injected drops; each retry backs
  /// off exponentially from connect_backoff.
  std::uint32_t max_connect_attempts = 4;
  sim::SimDuration connect_backoff = 200 * sim::kMillisecond;

  /// How long a crashed environment stays undetected (the Monitor's
  /// health-sweep interval).
  sim::SimDuration crash_detection_latency = 100 * sim::kMillisecond;

  // -- Device mobility (docs/LOADGEN.md) -------------------------------

  /// Scheduled mid-run radio handoffs (WiFi↔3G/4G), applied to the one
  /// shared link in virtual-time order.  A handoff with an outage models
  /// the disconnect/reconnect gap of a hard handover: radio operations
  /// (handshakes, upload starts, result downloads) stall until the new
  /// radio attaches, then every interrupted session resumes where it
  /// left off — nothing is rejected, the accounting identity holds.
  /// Each run replays the same plan from its base link (the plan is
  /// per-run state, like the fault pump's one-shot rules).
  std::vector<HandoffEvent> mobility;

  // -- Admission control & QoS (docs/LOADGEN.md, docs/QOS.md) ----------

  /// Dispatcher front door: class-aware bounded accept queues, per-tenant
  /// token buckets, utilization-based shedding.  Disabled by default —
  /// the paper-reproduction benches run unprotected, like the prototype.
  AdmissionConfig admission;

  /// Request-based Access Controller policy (§IV-E, docs/RAC.md):
  /// violation threshold, block window and per-tenant in-flight quota.
  /// Defaults keep the seed behaviour (threshold 5, permanent blocks, no
  /// quota).
  AccessConfig access;

  /// The cluster shard this platform instance serves as (set by Cluster;
  /// annotated on session spans as "placement").  -1 = standalone.
  std::int32_t shard_index = -1;

  /// Run the invariant harness even without a fault plan (the load-gen
  /// property battery).  The per-event checks read ledgers, so their cost
  /// does not grow with live sessions or environment history; the full
  /// scans run only as a periodic audit (docs/FAULTS.md).  Safe to leave
  /// on at any session scale.
  bool force_invariants = false;
};

/// Canonical configuration for one of the three evaluated platforms.
[[nodiscard]] PlatformConfig make_config(PlatformKind kind,
                                         net::LinkConfig link = net::lan_wifi(),
                                         std::uint64_t seed = 1);

/// Table I row: what provisioning one runtime environment costs.
struct ProvisionStats {
  sim::SimDuration setup_time = 0;   ///< boot → connected to Dispatcher
  std::uint64_t memory_configured = 0;  ///< allocation (512/128/96 MB)
  std::uint64_t memory_usage = 0;    ///< measured resident peak
  std::uint64_t disk_bytes = 0;      ///< per-environment disk footprint
  std::uint64_t shared_disk_bytes = 0;  ///< amortized shared layer (once)
};

/// QoS identity of one client session (docs/QOS.md).
struct SessionConfig {
  /// Admission tenant: the token-bucket and DRR-fairness key.  Empty =
  /// per-app tenancy (each app id is its own tenant), the legacy
  /// behaviour.
  std::string tenant;

  /// Priority class for every request submitted on this session.
  qos::PriorityClass priority = qos::PriorityClass::kStandard;

  /// DRR weight of `tenant` within its class: a weight-3 tenant drains
  /// 3× the queued requests of a weight-1 tenant under saturation.
  /// Requires a named tenant when != 1.  0 is invalid.
  std::uint32_t tenant_weight = 1;

  /// Response-time target; responses above it mark the outcome
  /// deadline_missed (accounting only — no scheduling effect).  0 = none.
  sim::SimDuration deadline = 0;

  /// Operations the offloaded code attempts against the RAC on every
  /// request in addition to its honest workflow — how adversary profiles
  /// model permission-probing apps (docs/RAC.md).  Forbidden entries
  /// accrue violations until the tenant is blocked.
  std::vector<Operation> probe_ops;
};

class Platform;

/// Move-only handle for one client's request stream on a Platform.
/// Obtained from Platform::open_session(); submit() schedules requests
/// under this session's QoS identity, result() reads finished outcomes,
/// close() drains the run and returns this session's outcomes.  The
/// handle does not own the run: closing one session leaves others open.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Schedules one request under this session's tenant/class/deadline.
  /// Sequences must stay dense and unique across *all* sessions of a run.
  void submit(const workloads::OffloadRequest& request);

  /// The finished outcome for `sequence`, or nullptr while in flight.
  [[nodiscard]] const RequestOutcome* result(std::uint64_t sequence) const;

  /// Drains the event queue and returns the outcomes of every request
  /// submitted through *this* session, in submission order.  The handle
  /// is closed afterwards; submit() on it is invalid.
  std::vector<RequestOutcome> close();

  [[nodiscard]] bool open() const { return platform_ != nullptr; }
  [[nodiscard]] const SessionConfig& config() const;

 private:
  friend class Platform;
  Session(Platform* platform, std::uint64_t id)
      : platform_(platform), id_(id) {}

  Platform* platform_ = nullptr;
  std::uint64_t id_ = 0;
};

class Platform {
 public:
  explicit Platform(PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  [[nodiscard]] CloudServer& server() { return *server_; }

  /// Replays a request stream to completion; outcomes are indexed by
  /// request sequence.  Tasks are actually executed (real kernels) to
  /// obtain their work units.
  std::vector<RequestOutcome> run(
      const std::vector<workloads::OffloadRequest>& stream);

  // -- Session API (docs/QOS.md) ---------------------------------------
  //
  // run() is sugar over one Session.  A closed-loop driver opens one
  // session per traffic class, installs a completion observer, and
  // submits follow-up requests *from inside the observer* — the arrivals
  // land on the same event queue, so a dynamically generated workload is
  // exactly as deterministic as a replayed one.

  /// Opens a client session carrying the given QoS identity.  The first
  /// session opened after the previous run finished resets per-run state
  /// (outcomes, live sessions, accept queues) and provisions the warm
  /// pool / fault pump; further sessions join the active run.
  /// kInvalidConfig: tenant_weight of 0, or a non-default weight without
  /// a named tenant.
  Result<Session> open_session(SessionConfig config = {});

  /// The finished outcome for `sequence` (any session), or nullptr.
  [[nodiscard]] const RequestOutcome* result(std::uint64_t sequence) const;

  // -- Legacy incremental API ------------------------------------------
  //
  // Deprecated wrappers over one default (standard-class, per-app-tenant)
  // session; prefer open_session().  Kept so pre-QoS callers compile
  // unchanged.

  /// Deprecated: open_session() resets per-run state on demand.
  void begin_run();

  /// Deprecated: Session::submit() on the default session.
  void submit(const workloads::OffloadRequest& request);

  /// Deprecated: drains the event queue and returns every outcome of the
  /// run — *all* sessions', indexed by sequence — then ends the run.
  std::vector<RequestOutcome> finish_run();

  /// Observer invoked with each finished outcome (completed, rejected or
  /// executed locally) — the closed-loop feedback path. Empty uninstalls.
  void set_completion_observer(
      std::function<void(const RequestOutcome&)> observer) {
    completion_observer_ = std::move(observer);
  }

  /// Admission backpressure in [0, 1] (0 when admission is disabled).
  [[nodiscard]] double backpressure() const {
    return admission_ ? admission_->backpressure() : 0.0;
  }

  /// The admission controller, or nullptr when disabled.
  [[nodiscard]] AdmissionController* admission() { return admission_.get(); }
  [[nodiscard]] const AdmissionController* admission() const {
    return admission_.get();
  }

  /// Sessions waiting in the bounded accept queues right now.
  [[nodiscard]] std::size_t accept_queue_depth() const {
    return admission_ ? admission_->queue_depth() : 0;
  }

  /// Provisions one environment on an otherwise idle platform and reports
  /// the Table I statistics.  Usable once, on a fresh Platform.
  ProvisionStats measure_provision();

  /// Per-environment traffic accounts (Fig. 3's per-VM composition).
  [[nodiscard]] const std::map<std::uint32_t, net::TrafficAccount>&
  env_traffic() const {
    return env_traffic_;
  }

  /// Device-side radio profile implied by the configured link.
  [[nodiscard]] device::RadioProfile radio_profile() const;

  /// The environments provisioned so far.
  [[nodiscard]] std::size_t env_count() const { return envs_.size(); }

  /// Integral of committed environment memory over simulated time so far
  /// (byte·seconds) — the resource cost a warm pool pays (§III-B).
  [[nodiscard]] double memory_time_byte_seconds() const;

  /// The installed fault injector, or nullptr when the plan is empty.
  [[nodiscard]] sim::FaultInjector* fault_injector() {
    return faults_.get();
  }
  [[nodiscard]] const sim::FaultInjector* fault_injector() const {
    return faults_.get();
  }

  /// The cross-component invariant harness (populated when a fault plan
  /// is installed or force_invariants is set; the ledger checks run after
  /// every simulator event, the full-scan audit every
  /// InvariantChecker::kAuditEvery events and when a run drains).
  [[nodiscard]] const InvariantChecker& invariants() const {
    return invariants_;
  }
  [[nodiscard]] InvariantChecker& invariants() { return invariants_; }

  /// Sessions currently in flight (bound or connecting).
  [[nodiscard]] std::size_t live_session_count() const {
    return live_sessions_.size();
  }

  /// Session-record allocations that overflowed the slab pool into the
  /// heap.  Stays 0 when the pool's block size covers allocate_shared's
  /// combined control-block + SessionState request (tests assert this).
  [[nodiscard]] std::uint64_t session_pool_heap_fallbacks() const;

  /// The platform-wide metrics registry (docs/OBSERVABILITY.md). Always
  /// live: every component is wired at construction and instrument
  /// updates are cheap enough for benchmark builds.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Session tracing (disabled by default; call trace().enable() before
  /// run() to record spans and export Chrome trace-event JSON).
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

  // -- Elastic capacity (docs/ELASTIC.md) ------------------------------

  /// Lifecycle ledger: the authoritative cold → booting → warm-idle →
  /// leased → draining → reclaimed state of every environment this
  /// platform ever provisioned.
  [[nodiscard]] const elastic::CacLifecycle& lifecycle() const {
    return lifecycle_;
  }

  /// Integral of warm-idle memory over simulated time (byte·seconds) —
  /// the idle-capacity cost the §III-B frontier charts.
  [[nodiscard]] double idle_byte_seconds() const {
    return lifecycle_.idle_byte_seconds(server_->simulator().now());
  }

  /// Warm-idle pool environments available for immediate lease.
  [[nodiscard]] std::uint32_t warm_idle_count() const;

  /// Boots up to `count` fresh pool environments (respects the elastic
  /// memory budget); returns how many were actually started.  Used by
  /// the controller tick and by cross-shard rebalancing.
  std::uint32_t elastic_prewarm(std::uint32_t count);

  /// Drains up to `count` warm-idle pool environments; returns how many
  /// drains began.  Draining capacity stops leasing and is reclaimed
  /// once in-flight work finishes.
  std::uint32_t elastic_retire_warm(std::uint32_t count);

  /// Starts draining one specific environment (tests / operations).
  /// False if the id is unknown, already draining, or retired.
  bool drain_env(std::uint32_t env_id);

  /// Content-addressed store of every lower layer the platform's CACs
  /// stack on.  Layers are pinned here by digest (deduplicated), so the
  /// shared base survives any individual environment's drain — only the
  /// private top layer is burned (docs/ELASTIC.md).
  [[nodiscard]] const container::LayerStore& layer_store() const {
    return layer_store_;
  }

 private:
  friend class Session;

  struct Env;
  struct SessionState;
  struct SessionScope;  ///< RAII: marks the session a handler acts for

  /// One open Session handle's server-side record.
  struct Stream {
    SessionConfig config;
    std::vector<std::uint64_t> sequences;  ///< submission order
    bool open = true;
  };

  Env& provision_env(const std::string& binding_key, sim::SimTime now);
  void provision_vm(Env& env);
  void provision_cac(Env& env);
  void env_ready(Env& env);
  void schedule_reclaim(Env& env);
  void retire_env(Env& env);

  // Elastic capacity machinery (docs/ELASTIC.md).
  void begin_drain(Env& env);
  void finish_drain(Env& env);
  Env& prewarm_env();
  void elastic_tick();
  void arm_elastic_tick();
  [[nodiscard]] std::uint64_t default_env_memory() const;

  // Session-handle plumbing.
  void reset_run();
  void drain_run();
  void submit_to_stream(std::uint64_t stream_id,
                        const workloads::OffloadRequest& request);
  std::vector<RequestOutcome> close_stream(std::uint64_t stream_id);
  [[nodiscard]] const SessionConfig& stream_config(
      std::uint64_t stream_id) const;
  void record_outcome(std::uint64_t sequence, RequestOutcome outcome);

  void on_arrival(std::shared_ptr<SessionState> s);
  void attempt_connect(std::shared_ptr<SessionState> s);
  void on_connected(std::shared_ptr<SessionState> s);
  void dispatch(std::shared_ptr<SessionState> s, sim::SimDuration lead_cost);
  void on_env_ready(std::shared_ptr<SessionState> s);
  void on_uploaded(std::shared_ptr<SessionState> s);
  void on_computed(std::shared_ptr<SessionState> s);
  void complete(std::shared_ptr<SessionState> s);

  // Mobility machinery (docs/LOADGEN.md).
  void arm_mobility_pump();
  void apply_handoff(const HandoffEvent& event);
  /// How long a radio operation starting now must wait for connectivity
  /// (0 when the link is attached).
  [[nodiscard]] sim::SimDuration mobility_stall(sim::SimTime now) const {
    return link_down_until_ > now ? link_down_until_ - now : 0;
  }
  /// Marks the session as interrupted-and-resumed (metrics + trace, once
  /// per session).
  void note_resumption(SessionState& s);

  // Fault-injection machinery.
  void crash_env(Env& env);
  void recover_env(std::uint32_t env_id);
  /// Block-onset sweep (docs/RAC.md): rejects every live session of a
  /// just-blocked tenant so it consumes zero container time past this
  /// instant (invariant #14).
  void on_tenant_blocked(const std::string& tenant, sim::SimTime now);
  void reject_session(std::shared_ptr<SessionState> s, RejectReason reason);
  void finish_session(SessionState& s);
  void unbind_session(SessionState& s);
  /// Gives back the session's Monitor job slot / admission in-service
  /// slot, keeping the matching invariant ledger in step.
  void release_job(SessionState& s);
  void release_slot(SessionState& s);

  // Invariant harness (docs/FAULTS.md).
  void register_invariants();
  void after_event();
  /// Re-derives `env`'s contributions to the ledgers after a mutation.
  void sync_env(Env& env);
  /// Retires `env`'s Container DB record and its warehouse mappings.
  void retire_record(const Env& env);
  /// Invariant #7 / #12 for one environment: the violation detail, or
  /// nullopt.
  [[nodiscard]] std::optional<std::string> db_mismatch(const Env& env) const;
  [[nodiscard]] std::optional<std::string> lifecycle_mismatch(
      const Env& env) const;
  /// Takes a session out of the live ledgers as it is marked done.
  void mark_done(SessionState& s);

  // Admission control.
  void maybe_start_queued();

  // Observability: one phase span open per session at a time.
  void begin_phase(SessionState& s, const char* name);
  void end_phase(SessionState& s);
  void on_fault_fired(sim::FaultKind kind, sim::SimTime when);

  [[nodiscard]] double cpu_factor() const;
  [[nodiscard]] sim::SimDuration compute_io_time(Env& env,
                                                 std::uint64_t bytes,
                                                 std::uint32_t ops) const;

  PlatformConfig config_;
  // Declared before the engine so components holding cached instrument
  // handles are destroyed first.
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  SessionState* active_session_ = nullptr;  ///< set while a handler runs
  /// Slab pool backing session records: every SessionState is created
  /// via std::allocate_shared, so control block + payload land in one
  /// recycled slab block instead of a per-session heap allocation
  /// (docs/PERF.md).  Declared before server_ and the session containers
  /// so it is destroyed after every shared_ptr<SessionState> — including
  /// those captured in the simulator's pending event callbacks.
  std::unique_ptr<sim::SlabPool> session_pool_;
  std::unique_ptr<CloudServer> server_;
  std::unique_ptr<net::Link> link_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<AdmissionController> admission_;
  /// Sessions parked in the admission class queues, by request sequence
  /// (the id the QosScheduler echoes back on pop).
  std::map<std::uint64_t, std::shared_ptr<SessionState>> queued_sessions_;
  std::function<void(const RequestOutcome&)> completion_observer_;
  InvariantChecker invariants_;
  std::vector<std::shared_ptr<SessionState>> live_sessions_;
  // Invariant ledgers, updated at the transitions that move them so each
  // per-event check is O(1) (docs/FAULTS.md); register_invariants() keeps
  // the full scans they are audited against.
  std::uint32_t computing_sessions_ = 0;  ///< #5: sessions holding a job slot
  std::uint32_t admitted_sessions_ = 0;   ///< #9: sessions holding a slot
  std::uint32_t pin_mismatched_envs_ = 0;  ///< #6: envs with bound ≠ inflight
  /// #1: retired, non-failed environments that still have bound sessions.
  std::set<std::uint32_t> dead_bound_envs_;
  std::uint64_t pool_committed_bytes_ = 0;  ///< #13: booting + warm pool
  /// #7, #12: environments changed in this event or still violating.
  std::vector<Env*> watched_envs_;
  /// #14: live sessions per tenant.
  std::map<std::string, std::uint32_t, std::less<>> live_by_tenant_;
  sim::Rng rng_;
  std::map<std::uint32_t, std::unique_ptr<Env>> envs_;
  /// Claimable warm-pool environments (pool, not retired, not draining)
  /// by id, kept by sync_env(). The dispatch claim takes the lowest id;
  /// the elastic controller walks this instead of every env ever made.
  std::map<std::uint32_t, Env*> claimable_;
  std::map<std::uint32_t, net::TrafficAccount> env_traffic_;
  std::map<std::string, android::MobileApp> apps_;  ///< by app id
  std::vector<device::MobileDevice> devices_;
  std::vector<RequestOutcome> outcomes_;
  std::vector<std::uint8_t> outcome_done_;  ///< parallel to outcomes_
  elastic::CacLifecycle lifecycle_;
  std::unique_ptr<elastic::PoolController> pool_controller_;
  container::LayerStore layer_store_;
  std::uint32_t pool_seq_ = 0;       ///< names pool:<n> environments
  bool elastic_tick_armed_ = false;
  /// Open lifecycle-state span per environment (trace enabled only).
  std::map<std::uint32_t, obs::SpanId> lifecycle_spans_;
  std::map<std::uint64_t, Stream> streams_;  ///< by Session handle id
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t default_stream_ = 0;  ///< legacy-wrapper session, 0 = none
  bool run_active_ = false;
  std::size_t completed_ = 0;
  std::uint32_t next_env_id_ = 1;
  /// Radio the platform was constructed with; each run's mobility plan
  /// replays from this base configuration.
  net::LinkConfig base_link_;
  /// Connectivity returns at this virtual time (0 = link attached).
  sim::SimTime link_down_until_ = 0;

  const android::MobileApp& app_for(workloads::Kind kind);
  const device::MobileDevice& device_for(std::uint32_t device_id);

  /// Per-app offloading-decision history (adaptive mode).
  struct DecisionState {
    double ewma_remote_s = 0;  ///< observed offload responses
    double ewma_local_s = 0;   ///< known local execution times
    std::uint32_t samples = 0;
  };
  std::map<std::string, DecisionState> decisions_;
};

}  // namespace rattrap::core
