#include "core/platform.hpp"

#include <algorithm>
#include <cassert>

#include "android/image_profile.hpp"

namespace rattrap::core {

const char* to_string(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kVmCloud:
      return "VM";
    case PlatformKind::kRattrapWithoutOpt:
      return "Rattrap(W/O)";
    case PlatformKind::kRattrap:
      return "Rattrap";
  }
  return "?";
}

PlatformConfig make_config(PlatformKind kind, net::LinkConfig link,
                           std::uint64_t seed) {
  PlatformConfig config;
  config.kind = kind;
  config.link = std::move(link);
  config.seed = seed;
  switch (kind) {
    case PlatformKind::kVmCloud:
      config.container_backing = false;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrapWithoutOpt:
      config.container_backing = true;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrap:
      break;  // all defaults on
  }
  return config;
}

// ---------------------------------------------------------------------
// Internal state

struct Platform::Env {
  std::uint32_t id = 0;
  bool is_vm = false;
  vm::VmId vm_id = 0;
  std::unique_ptr<CloudAndroidContainer> cac;
  android::ClassLoader vm_loader;  ///< for VM-backed environments
  bool ready = false;
  sim::SimTime provision_start = 0;
  sim::SimTime ready_at = 0;
  sim::SimTime busy_until = 0;
  std::vector<std::function<void()>> waiters;
  /// Apps whose code this specific environment has received (the per-VM
  /// duplicate-code bookkeeping of §III-D).
  std::set<std::string> pushed_apps;
  std::uint64_t disk_bytes = 0;
  std::string binding_key;
  bool retired = false;
  std::uint32_t inflight = 0;       ///< sessions bound but not completed
  std::uint64_t jobs_served = 0;    ///< reclaim-epoch counter
  bool pool = false;                ///< pre-booted, waiting for a claimant
  bool draining = false;            ///< no new leases; reclaim when idle
  bool failed = false;              ///< provisioning failed (capacity)
  bool crashed = false;             ///< died abruptly (fault injection)
  std::uint64_t memory_bytes = 0;   ///< committed allocation
  sim::SimTime commit_start = 0;
  sim::SimTime commit_end = -1;     ///< -1 while still committed

  // Invariant ledger state (sync_env): what this environment currently
  // contributes to the platform-wide ledgers.
  std::uint32_t bound = 0;          ///< live sessions with env == this
  bool pin_mismatch = false;        ///< counted in pin_mismatched_envs_
  std::uint64_t pool_commit = 0;    ///< counted in pool_committed_bytes_
  bool claimable = false;           ///< listed in claimable_
  bool watched = false;             ///< queued in watched_envs_
};

struct Platform::SessionState {
  workloads::OffloadRequest request;
  std::string app_id;
  std::uint64_t apk_bytes = 0;
  workloads::Kind kind = workloads::Kind::kLinpack;
  workloads::TaskResult executed;  ///< real kernel execution
  std::unique_ptr<net::Connection> conn;
  PhaseBreakdown phases;
  sim::SimTime connected_at = 0;
  sim::SimDuration upload_time = 0;
  sim::SimDuration download_time = 0;
  bool cache_hit = false;
  bool spilled_to_disk = false;  ///< tmpfs full: files staged on disk
  Env* env = nullptr;

  // Fault-injection state. Scheduled continuations capture `epoch` and
  // bail when it moved on — a crash invalidates every event the session
  // had in flight without having to cancel them individually.
  std::uint64_t epoch = 0;
  std::uint32_t dispatch_attempts = 0;
  std::uint32_t connect_attempts = 0;
  bool recovered = false;   ///< survived at least one environment crash
  bool resumed = false;     ///< stalled through a handoff outage
  bool staged = false;      ///< files currently staged in the shared tmpfs
  bool computing = false;   ///< holds a Monitor job slot
  bool done = false;        ///< outcome recorded (completed or rejected)

  // Access-control state (docs/RAC.md).
  bool rac_slot = false;    ///< holds a RAC in-flight quota slot

  // Admission-control state (docs/LOADGEN.md).
  bool admitted = false;    ///< holds an in-service slot
  bool queued = false;      ///< waiting in the bounded accept queue
  sim::SimTime enqueued_at = 0;
  sim::SimDuration queue_wait = 0;
  sim::SimDuration pending_lead = 0;  ///< dispatch lead cost when popped

  // QoS identity, inherited from the owning Session (docs/QOS.md).
  std::uint64_t stream_id = 0;
  std::string tenant;       ///< resolved: stream tenant, or app id
  qos::PriorityClass klass = qos::PriorityClass::kStandard;
  sim::SimDuration deadline = 0;
  std::uint64_t drr_deficit = 0;  ///< tenant deficit after the queue pop

  // Observability state (docs/OBSERVABILITY.md). Spans live on track
  // `request.sequence + 1`; track 0 is the platform itself.
  obs::SpanId span_session = obs::kNoSpan;  ///< root "session" span
  obs::SpanId span_phase = obs::kNoSpan;    ///< current phase span
  bool fresh_env = false;  ///< bound to an env that still had to boot
  std::map<sim::FaultKind, std::uint64_t> fault_hits;
};

/// Track 0 carries platform-wide instants (faults outside any session).
constexpr std::uint64_t kPlatformTrack = 0;

/// Lifecycle-state spans live on one track per environment, far above
/// any session's (session tracks are sequence + 1).
constexpr std::uint64_t kLifecycleTrackBase = 1'000'000'000;

namespace {
/// Affinity-reroute backlog tolerance by class: interactive sessions give
/// up the code-cache reroute sooner than batch, which will happily wait
/// behind a longer queue to save the code push (docs/QOS.md).  Standard
/// keeps the pre-QoS 600 ms default.
sim::SimDuration class_backlog_threshold(qos::PriorityClass klass) {
  switch (klass) {
    case qos::PriorityClass::kInteractive:
      return sim::from_millis(300);
    case qos::PriorityClass::kStandard:
      return sim::from_millis(600);
    case qos::PriorityClass::kBatch:
      return sim::from_millis(1200);
  }
  return sim::from_millis(600);
}
}  // namespace

// Marks the session a handler (and everything it synchronously calls
// into — link, tmpfs, warehouse, kernel) acts for, so a fault fired deep
// inside a component annotates the right span. Scopes nest because
// handlers invoke each other directly.
struct Platform::SessionScope {
  SessionScope(Platform& platform, SessionState& session)
      : platform_(platform),
        prev_session_(platform.active_session_),
        prev_span_(platform.trace_.active()) {
    platform_.active_session_ = &session;
    platform_.trace_.set_active(session.span_phase != obs::kNoSpan
                                    ? session.span_phase
                                    : session.span_session);
  }
  ~SessionScope() {
    platform_.active_session_ = prev_session_;
    platform_.trace_.set_active(prev_span_);
  }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  Platform& platform_;
  SessionState* prev_session_;
  obs::SpanId prev_span_;
};

void Platform::begin_phase(SessionState& s, const char* name) {
  if (!trace_.enabled()) return;
  if (s.span_phase != obs::kNoSpan) end_phase(s);
  s.span_phase = trace_.begin(s.request.sequence + 1, name, "phase",
                              server_->simulator().now());
  trace_.set_active(s.span_phase);
}

void Platform::end_phase(SessionState& s) {
  if (s.span_phase == obs::kNoSpan) return;
  trace_.end(s.span_phase, server_->simulator().now());
  s.span_phase = obs::kNoSpan;
}

void Platform::on_fault_fired(sim::FaultKind kind, sim::SimTime when) {
  metrics_.counter(std::string("faults.fired.") + sim::to_string(kind))
      .inc();
  if (!trace_.enabled()) return;
  const std::string name = std::string("fault:") + sim::to_string(kind);
  SessionState* s = active_session_;
  if (s != nullptr && !s->done) {
    const std::uint64_t hits = ++s->fault_hits[kind];
    const std::string key = std::string("fault.") + sim::to_string(kind);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, key, hits);
    }
    if (s->span_session != obs::kNoSpan) {
      trace_.annotate(s->span_session, key, hits);
    }
    trace_.instant(s->request.sequence + 1, name, "fault", when);
  } else {
    // No session context (e.g. a pump-delivered container crash).
    trace_.instant(kPlatformTrack, name, "fault", when);
  }
}

// ---------------------------------------------------------------------

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Session records are pooled: one slab block fits the shared_ptr
  // control block plus the SessionState payload (64 bytes of headroom
  // covers the library's control-block layout; anything bigger falls
  // through to the heap and is counted, never lost).
  session_pool_ =
      std::make_unique<sim::SlabPool>(sizeof(SessionState) + 64);
  const auto system_layer = config_.customized_os
                                ? android::customized_layer()
                                : android::container_stock_layer();
  Calibration calibration =
      config_.calibration ? *config_.calibration : default_calibration();
  if (config_.tmpfs_capacity_override > 0) {
    calibration.tmpfs_capacity = config_.tmpfs_capacity_override;
  }
  server_ = std::make_unique<CloudServer>(calibration, system_layer);
  link_ = std::make_unique<net::Link>(config_.link);
  base_link_ = config_.link;
  dispatcher_ = std::make_unique<Dispatcher>(server_->env_db(),
                                             server_->warehouse(),
                                             config_.dispatcher_affinity);
  server_->install_metrics(&metrics_);
  link_->set_metrics(&metrics_);
  dispatcher_->set_metrics(&metrics_);
  // The access controller becomes a stateful defense layer (docs/RAC.md):
  // the block hook sweeps the offender's live sessions so a blocked
  // tenant consumes zero container time after block onset (invariant 14).
  server_->access().configure(config_.access);
  server_->access().on_block(
      [this](const std::string& tenant, sim::SimTime now) {
        on_tenant_blocked(tenant, now);
      });
  server_->access().on_unblock(
      [this](const std::string& tenant, sim::SimTime now) {
        if (!trace_.enabled()) return;
        const obs::SpanId mark =
            trace_.instant(kPlatformTrack, "rac_unblock", "rac", now);
        trace_.annotate(mark, "tenant", tenant);
      });
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, server_->monitor(), calibration.server_cores);
    admission_->set_metrics(&metrics_);
  }
  if (config_.elastic.mode != elastic::PoolMode::kDisabled) {
    pool_controller_ =
        std::make_unique<elastic::PoolController>(config_.elastic);
  }
  // Lifecycle transitions feed the elastic.* metrics schema and, when
  // tracing is on, one state span per environment (docs/ELASTIC.md).
  lifecycle_.set_transition_hook(
      [this](std::uint32_t cid, elastic::CacState from, elastic::CacState to,
             sim::SimTime now) {
        metrics_
            .counter(std::string("elastic.transitions.") +
                     elastic::to_string(to))
            .inc();
        metrics_.gauge(std::string("elastic.state.") + elastic::to_string(to))
            .set(static_cast<double>(lifecycle_.count(to)));
        if (from != elastic::CacState::kCold) {
          metrics_
              .gauge(std::string("elastic.state.") + elastic::to_string(from))
              .set(static_cast<double>(lifecycle_.count(from)));
        }
        if (!trace_.enabled()) return;
        if (const auto it = lifecycle_spans_.find(cid);
            it != lifecycle_spans_.end()) {
          trace_.end(it->second, now);  // no-op if a drain already closed it
          lifecycle_spans_.erase(it);
        }
        const std::uint64_t track = kLifecycleTrackBase + cid;
        if (to == elastic::CacState::kReclaimed) {
          trace_.instant(track, "reclaimed", "lifecycle", now);
          return;
        }
        lifecycle_spans_.emplace(
            cid,
            trace_.begin(track, elastic::to_string(to), "lifecycle", now));
      });
  if (!config_.fault_plan.empty()) {
    faults_ = std::make_unique<sim::FaultInjector>(config_.fault_plan,
                                                   config_.seed);
    faults_->set_clock(
        [this]() { return server_->simulator().now(); });
    link_->set_fault_injector(faults_.get());
    server_->install_fault_injector(faults_.get());
    faults_->set_fire_observer(
        [this](sim::FaultKind kind, sim::SimTime when) {
          on_fault_fired(kind, when);
        });
    server_->monitor().set_detection_latency(
        config_.crash_detection_latency);
    server_->monitor().set_crash_handler(
        [this](std::uint32_t env_id) { recover_env(env_id); });
  }
  // The oracle is armed under a fault plan, and on fault-free runs when
  // the property battery asks for it.
  if (config_.check_invariants &&
      (faults_ != nullptr || config_.force_invariants)) {
    register_invariants();
    server_->simulator().set_post_event_hook([this]() { after_event(); });
  }
}

Platform::~Platform() = default;

device::RadioProfile Platform::radio_profile() const {
  if (config_.link.name == "3G") return device::radio_3g();
  if (config_.link.name == "4G") return device::radio_4g();
  return device::wifi_radio();
}

const android::MobileApp& Platform::app_for(workloads::Kind kind) {
  const auto workload = workloads::make_workload(kind);
  const std::string app_id = workload->app().app_id;
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    it = apps_.emplace(app_id, android::MobileApp::for_workload(kind)).first;
  }
  return it->second;
}

const device::MobileDevice& Platform::device_for(std::uint32_t device_id) {
  while (devices_.size() <= device_id) {
    device::DeviceConfig dc;
    dc.id = static_cast<std::uint32_t>(devices_.size());
    devices_.emplace_back(dc);
  }
  return devices_[device_id];
}

double Platform::cpu_factor() const {
  const Calibration& cal = server_->calibration();
  return config_.container_backing ? cal.container_cpu_factor
                                   : cal.vm_cpu_factor;
}

sim::SimDuration Platform::compute_io_time(Env& env, std::uint64_t bytes,
                                           std::uint32_t ops) const {
  if (bytes == 0 && ops == 0) return 0;
  const Calibration& cal = server_->calibration();
  if (config_.sharing_offload_io) {
    // Sharing Offloading I/O: reads come from the shared tmpfs; a file
    // operation is a page-cache hit (~20 µs of VFS work).
    return server_->shared_layer().io_time(bytes) +
           static_cast<sim::SimDuration>(ops) * 20;
  }
  // Disk-backed offloading I/O: each discrete file operation pays a seek
  // (VirusScan's many small files are why it is the most I/O-bound
  // workload, §III-C), plus the streaming transfer.
  const sim::SimDuration per_op =
      sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  const sim::SimDuration native =
      server_->disk().service_time(bytes, /*sequential=*/true) +
      static_cast<sim::SimDuration>(ops) * per_op;
  if (env.is_vm) {
    return static_cast<sim::SimDuration>(static_cast<double>(native) /
                                         cal.vm_io_factor);
  }
  return native;  // container: native disk I/O
}

// ---------------------------------------------------------------------
// Environment provisioning

Platform::Env& Platform::provision_env(const std::string& binding_key,
                                       sim::SimTime now) {
  const std::uint32_t id = next_env_id_++;
  auto env = std::make_unique<Env>();
  env->id = id;
  env->is_vm = !config_.container_backing;
  env->provision_start = now;
  env->binding_key = binding_key;
  Env& ref = *env;
  envs_.emplace(id, std::move(env));
  server_->env_db().add(id,
                        ref.is_vm ? EnvBacking::kVm : EnvBacking::kContainer,
                        binding_key, now);
  if (ref.is_vm) {
    provision_vm(ref);
  } else {
    provision_cac(ref);
  }
  lifecycle_.admit(id, now, ref.memory_bytes);
  if (ref.failed) {
    // Dead on arrival (capacity wall): straight to reclaimed.
    lifecycle_.transition(id, elastic::CacState::kReclaimed, now);
  }
  sync_env(ref);
  return ref;
}

void Platform::provision_vm(Env& env) {
  const Calibration& cal = server_->calibration();
  vm::VmConfig vc;
  vc.name = "android-vm-" + std::to_string(env.id);
  vc.vcpus = 1;
  vc.memory = cal.vm_memory;
  vc.disk_image = android::stock_layer()->total_bytes();
  vc.cpu_factor = cal.vm_cpu_factor;
  vc.io_factor = cal.vm_io_factor;
  vm::VirtualMachine* machine = server_->hypervisor().create(vc);
  if (machine == nullptr) {
    // Host memory exhausted: the environment cannot be provisioned. Every
    // waiting session is answered with a rejection — the density wall a
    // 512 MB-per-VM resource model hits on a 16 GB server.
    metrics_.counter("env.provision_failed").inc();
    env.failed = true;
    env.retired = true;
    retire_record(env);
    server_->simulator().schedule_in(0, [this, &env]() {
      auto waiters = std::move(env.waiters);
      env.waiters.clear();
      for (auto& waiter : waiters) waiter();
    });
    return;
  }
  env.vm_id = machine->id();
  env.disk_bytes = vc.disk_image;
  env.memory_bytes = vc.memory;
  env.commit_start = server_->simulator().now();

  const sim::SimTime boot_start = server_->simulator().now();
  server_->hypervisor().boot(
      env.vm_id, android::vm_boot_plan(android::OsProfile::kStock),
      [this, &env, boot_start](sim::SimTime booted_at) {
        // Boot keeps roughly one guest vCPU busy end to end.
        server_->monitor().record_cpu(boot_start, booted_at, 0.85);
        server_->simulator().schedule_in(
            server_->calibration().env_register_cost,
            [this, &env]() { env_ready(env); });
      });
}

void Platform::provision_cac(Env& env) {
  CacConfig cc;
  cc.name = "cac-" + std::to_string(env.id);
  cc.profile = config_.customized_os ? android::OsProfile::kCustomized
                                     : android::OsProfile::kStock;
  if (config_.shared_resource_layer) {
    cc.lower_layers = {server_->shared_layer().system_layer()};
    // A later CAC finds the shared layer page-cached by the first boot.
    cc.warm_shared_layer = envs_.size() > 1;
  } else {
    // Private full image copy per container (the W/O configuration).
    cc.lower_layers = {config_.customized_os
                           ? android::customized_layer()
                           : android::container_stock_layer()};
    cc.warm_shared_layer = false;
  }
  cc.memory_limit = config_.customized_os
                        ? server_->calibration().cac_opt_memory
                        : server_->calibration().cac_plain_memory;
  // Pin the lower layers by content digest: deduplicated across every
  // CAC, and held here so the shared base outlives any one container's
  // drain (only the private top layer is reclaimed).
  for (const auto& layer : cc.lower_layers) layer_store_.add(layer);
  metrics_.gauge("elastic.layers.pinned_bytes")
      .set(static_cast<double>(layer_store_.stored_bytes()));
  env.cac = std::make_unique<CloudAndroidContainer>(
      cc, server_->containers(), server_->driver());
  env.memory_bytes = cc.memory_limit;
  env.commit_start = server_->simulator().now();

  const auto start_cost = env.cac->start_container(server_->kernel());
  if (!start_cost.has_value()) {
    // Container start failed — missing kernel feature, cgroup memory
    // limit, or an injected device-namespace teardown. Same answer as
    // the VM capacity wall: the environment is dead on arrival and
    // every waiting session gets a rejection.
    metrics_.counter("env.provision_failed").inc();
    env.failed = true;
    env.retired = true;
    env.memory_bytes = 0;
    env.commit_end = env.commit_start;
    retire_record(env);
    server_->simulator().schedule_in(0, [this, &env]() {
      auto waiters = std::move(env.waiters);
      env.waiters.clear();
      for (auto& waiter : waiters) waiter();
    });
    return;
  }
  const android::UserspaceBoot boot = env.cac->userspace_boot();

  // Per-environment disk: a private image copy without the shared layer,
  // or just the COW delta (seeded at finish_boot) with it.
  env.disk_bytes = config_.shared_resource_layer
                       ? 0  // updated after finish_boot
                       : cc.lower_layers.front()->total_bytes();

  sim::Simulator& simulator = server_->simulator();
  const sim::SimTime cpu_start = simulator.now() + *start_cost;
  auto after_io = [this, &env, boot, cpu_start]() {
    sim::Simulator& simulator2 = server_->simulator();
    const sim::SimTime now = simulator2.now();
    const sim::SimTime cpu_done = now + boot.cpu_total();
    server_->monitor().record_cpu(std::max(cpu_start, now), cpu_done, 0.9);
    simulator2.schedule_at(cpu_done, [this, &env]() {
      env.cac->finish_boot(server_->simulator().now());
      if (config_.shared_resource_layer) {
        env.disk_bytes = env.cac->private_disk_bytes();
      }
      server_->simulator().schedule_in(
          server_->calibration().env_register_cost,
          [this, &env]() { env_ready(env); });
    });
  };

  simulator.schedule_at(cpu_start, [this, boot, after_io]() {
    if (boot.disk_read_bytes == 0) {
      after_io();
      return;
    }
    server_->disk().submit(fs::IoKind::kRead, boot.disk_read_bytes,
                           /*sequential=*/true, after_io);
  });
}

void Platform::env_ready(Env& env) {
  env.ready = true;
  env.ready_at = server_->simulator().now();
  env.busy_until = env.ready_at;
  metrics_.counter("env.provisioned").inc();
  metrics_.histogram("env.provision_ms")
      .observe(sim::to_millis(env.ready_at - env.provision_start));
  server_->monitor().env_up(env.id);
  if (pool_controller_ != nullptr) {
    pool_controller_->observe_boot(
        sim::to_seconds(env.ready_at - env.provision_start));
  }
  if (EnvRecord* record = server_->env_db().find(env.id)) {
    record->state = env.draining ? EnvState::kDraining : EnvState::kIdle;
    record->ready_at = env.ready_at;
  }
  if (!env.draining) {
    // A drain begun mid-boot already moved the ledger to kDraining.
    lifecycle_.transition(env.id,
                          env.inflight > 0 ? elastic::CacState::kLeased
                                           : elastic::CacState::kWarmIdle,
                          env.ready_at);
  }
  sync_env(env);
  auto waiters = std::move(env.waiters);
  env.waiters.clear();
  for (auto& waiter : waiters) waiter();
  if (env.draining) {
    if (env.inflight == 0) finish_drain(env);
    return;
  }
  schedule_reclaim(env);
}

void Platform::schedule_reclaim(Env& env) {
  if (config_.env_idle_timeout <= 0) return;
  const std::uint64_t epoch = env.jobs_served;
  server_->simulator().schedule_in(
      config_.env_idle_timeout, [this, &env, epoch]() {
        if (env.retired || !env.ready) return;
        if (env.pool && env.jobs_served == 0) return;  // waiting warm
        if (env.jobs_served != epoch) return;  // work arrived since
        if (env.inflight > 0) return;          // sessions in progress
        if (env.busy_until > server_->simulator().now()) return;
        begin_drain(env);
      });
}

void Platform::retire_env(Env& env) {
  env.retired = true;
  env.ready = false;
  env.commit_end = server_->simulator().now();
  server_->monitor().env_down(env.id);
  lifecycle_.transition(env.id, elastic::CacState::kReclaimed,
                        server_->simulator().now());
  retire_record(env);
  if (env.is_vm) {
    server_->hypervisor().destroy(env.vm_id);
  } else if (env.cac) {
    env.cac->shutdown(server_->kernel());
  }
  sync_env(env);
}

void Platform::retire_record(const Env& env) {
  server_->env_db().retire(env.id);
  server_->warehouse().forget_env(env.id);
}

// ---------------------------------------------------------------------
// Elastic capacity machinery (docs/ELASTIC.md)

std::uint64_t Platform::session_pool_heap_fallbacks() const {
  return session_pool_->heap_fallbacks();
}

void Platform::begin_drain(Env& env) {
  if (env.draining || env.retired) return;
  env.draining = true;
  env.pool = false;  // never claimable again
  metrics_.counter("elastic.drained").inc();
  lifecycle_.transition(env.id, elastic::CacState::kDraining,
                        server_->simulator().now());
  // Unbind the affinity key so the dispatcher never routes new work
  // here; in-flight sessions keep their binding through s->env.
  env.binding_key = "drain:" + std::to_string(env.id);
  server_->env_db().rebind(env.id, env.binding_key);
  if (EnvRecord* record = server_->env_db().find(env.id)) {
    if (record->state != EnvState::kRetired) {
      record->state = EnvState::kDraining;
    }
  }
  sync_env(env);
  if (env.ready && env.inflight == 0) finish_drain(env);
}

void Platform::finish_drain(Env& env) {
  if (env.retired) return;
  if (!env.is_vm && env.cac != nullptr) {
    // Reclaim the private COW layer; shared lower layers stay for the
    // environments still referencing them.
    const std::uint64_t freed = env.cac->reclaim_private_layer();
    if (freed > 0) {
      metrics_.counter("elastic.reclaimed.private_bytes").inc(freed);
    }
  }
  retire_env(env);
}

bool Platform::drain_env(std::uint32_t env_id) {
  const auto it = envs_.find(env_id);
  if (it == envs_.end()) return false;
  Env& env = *it->second;
  if (env.retired || env.draining) return false;
  begin_drain(env);
  return true;
}

Platform::Env& Platform::prewarm_env() {
  Env& env = provision_env("pool:" + std::to_string(pool_seq_++),
                           server_->simulator().now());
  env.pool = true;
  sync_env(env);
  metrics_.counter("elastic.prewarmed").inc();
  return env;
}

std::uint64_t Platform::default_env_memory() const {
  const Calibration& cal = server_->calibration();
  if (!config_.container_backing) return cal.vm_memory;
  return config_.customized_os ? cal.cac_opt_memory : cal.cac_plain_memory;
}

std::uint32_t Platform::warm_idle_count() const {
  std::uint32_t n = 0;
  for (const auto& [id, env] : claimable_) {
    (void)id;
    if (env->ready && env->inflight == 0) ++n;
  }
  return n;
}

std::uint32_t Platform::elastic_prewarm(std::uint32_t count) {
  if (count == 0) return 0;
  // Honor the memory budget against the whole pool pipeline (booting
  // included) so a rebalance burst cannot overshoot it either.
  const std::uint64_t budget =
      pool_controller_ ? pool_controller_->config().memory_budget_bytes : 0;
  const std::uint64_t mem = default_env_memory();
  if (budget > 0 && mem > 0) {
    std::uint64_t committed = 0;
    for (const auto& [id, env] : claimable_) {
      (void)id;
      committed += env->memory_bytes > 0 ? env->memory_bytes : mem;
    }
    const std::uint64_t room = budget > committed ? budget - committed : 0;
    count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, room / mem));
  }
  for (std::uint32_t i = 0; i < count; ++i) prewarm_env();
  return count;
}

std::uint32_t Platform::elastic_retire_warm(std::uint32_t count) {
  // Newest-first: the longest-warm environments (page caches hottest)
  // survive; deterministic because env ids are allocation-ordered.
  // Picked before draining, since begin_drain() edits claimable_.
  std::vector<Env*> victims;
  for (auto it = claimable_.rbegin();
       it != claimable_.rend() && victims.size() < count; ++it) {
    Env* env = it->second;
    if (env->ready && env->inflight == 0) victims.push_back(env);
  }
  for (Env* env : victims) begin_drain(*env);
  return static_cast<std::uint32_t>(victims.size());
}

void Platform::arm_elastic_tick() {
  if (pool_controller_ == nullptr || elastic_tick_armed_) return;
  elastic_tick_armed_ = true;
  server_->simulator().schedule_in(
      sim::from_seconds(pool_controller_->config().tick_s),
      [this]() { elastic_tick(); });
}

void Platform::elastic_tick() {
  elastic_tick_armed_ = false;
  if (pool_controller_ == nullptr) return;
  elastic::PoolSnapshot snapshot;
  snapshot.memory_per_env = default_env_memory();
  for (const auto& [id, env] : claimable_) {
    (void)id;
    if (!env->ready) {
      ++snapshot.booting;
    } else if (env->inflight == 0) {
      ++snapshot.warm;
    }
  }
  const elastic::PoolDecision decision =
      pool_controller_->tick(snapshot, pool_controller_->config().tick_s);
  metrics_.gauge("elastic.target").set(static_cast<double>(decision.target));
  metrics_.gauge("elastic.forecast_rate")
      .set(pool_controller_->forecast_rate());
  metrics_.gauge("elastic.idle_byte_seconds").set(idle_byte_seconds());
  if (decision.prewarm > 0) elastic_prewarm(decision.prewarm);
  if (decision.drain > 0) elastic_retire_warm(decision.drain);
  // Keep ticking only while the run has work; the next arrival re-arms,
  // so an idle platform's event queue actually drains.
  if (!live_sessions_.empty() || !queued_sessions_.empty()) {
    arm_elastic_tick();
  }
}

// ---------------------------------------------------------------------
// SessionState flow

std::vector<RequestOutcome> Platform::run(
    const std::vector<workloads::OffloadRequest>& stream) {
  begin_run();
  for (const auto& request : stream) submit(request);
  return finish_run();
}

// -- Session handles (docs/QOS.md) ------------------------------------

Session::Session(Session&& other) noexcept
    : platform_(other.platform_), id_(other.id_) {
  other.platform_ = nullptr;
  other.id_ = 0;
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    if (platform_ != nullptr) platform_->close_stream(id_);
    platform_ = other.platform_;
    id_ = other.id_;
    other.platform_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Session::~Session() {
  if (platform_ != nullptr) platform_->close_stream(id_);
}

void Session::submit(const workloads::OffloadRequest& request) {
  assert(platform_ != nullptr && "submit on a closed Session");
  platform_->submit_to_stream(id_, request);
}

const RequestOutcome* Session::result(std::uint64_t sequence) const {
  assert(platform_ != nullptr && "result on a closed Session");
  return platform_->result(sequence);
}

std::vector<RequestOutcome> Session::close() {
  assert(platform_ != nullptr && "close on a closed Session");
  // The handle stays live through the drain: close_stream() runs the
  // shared event queue dry, and a completion observer may legitimately
  // submit follow-ups into this very session while that happens
  // (closed-loop load does exactly this).  Only once the drain finishes
  // does the handle detach.
  std::vector<RequestOutcome> results = platform_->close_stream(id_);
  platform_ = nullptr;
  return results;
}

const SessionConfig& Session::config() const {
  assert(platform_ != nullptr && "config on a closed Session");
  return platform_->stream_config(id_);
}

Result<Session> Platform::open_session(SessionConfig config) {
  if (config.tenant_weight == 0 ||
      (config.tenant_weight != 1 && config.tenant.empty())) {
    // A weight needs a named tenant to attach to, and 0 would stall DRR.
    return RejectReason::kInvalidConfig;
  }
  // Front-door permission check (docs/RAC.md): a blocked tenant cannot
  // even open a stream.  Per-app tenancy (empty tenant) is gated per
  // request at arrival instead, where the app id is known.
  if (!config.tenant.empty() &&
      server_->access().allow_open(config.tenant,
                                   server_->simulator().now()) !=
          AccessDeny::kNone) {
    return RejectReason::kAccessDenied;
  }
  if (!run_active_) reset_run();
  const std::uint64_t id = next_stream_id_++;
  Stream stream;
  stream.config = std::move(config);
  if (admission_ != nullptr && stream.config.tenant_weight != 1) {
    admission_->set_tenant_weight(stream.config.tenant,
                                  stream.config.tenant_weight);
  }
  streams_.emplace(id, std::move(stream));
  return Session(this, id);
}

const SessionConfig& Platform::stream_config(
    std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  assert(it != streams_.end());
  return it->second.config;
}

const RequestOutcome* Platform::result(std::uint64_t sequence) const {
  if (sequence >= outcomes_.size() || outcome_done_[sequence] == 0) {
    return nullptr;
  }
  return &outcomes_[sequence];
}

std::vector<RequestOutcome> Platform::close_stream(
    std::uint64_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end() || !it->second.open) return {};
  drain_run();
  it->second.open = false;
  std::vector<RequestOutcome> results;
  results.reserve(it->second.sequences.size());
  for (const std::uint64_t sequence : it->second.sequences) {
    assert(sequence < outcomes_.size() && outcome_done_[sequence] != 0);
    results.push_back(outcomes_[sequence]);
  }
  bool any_open = false;
  for (const auto& [id, stream] : streams_) {
    (void)id;
    if (stream.open) any_open = true;
  }
  if (!any_open) run_active_ = false;
  return results;
}

// -- Legacy wrappers (one default session) ----------------------------

void Platform::begin_run() {
  reset_run();
  default_stream_ = next_stream_id_++;
  streams_.emplace(default_stream_, Stream{});
}

void Platform::submit(const workloads::OffloadRequest& request) {
  if (!run_active_) reset_run();
  const auto it = streams_.find(default_stream_);
  if (it == streams_.end() || !it->second.open) {
    default_stream_ = next_stream_id_++;
    streams_.emplace(default_stream_, Stream{});
  }
  submit_to_stream(default_stream_, request);
}

std::vector<RequestOutcome> Platform::finish_run() {
  drain_run();
  for (auto& [id, stream] : streams_) {
    (void)id;
    stream.open = false;
  }
  run_active_ = false;
  default_stream_ = 0;
  return outcomes_;
}

// ---------------------------------------------------------------------

void Platform::reset_run() {
  outcomes_.clear();
  outcome_done_.clear();
  completed_ = 0;
  live_sessions_.clear();
  queued_sessions_.clear();
  if (admission_ != nullptr) admission_->scheduler().clear();
  streams_.clear();
  default_stream_ = 0;
  run_active_ = true;
  sim::Simulator& simulator = server_->simulator();
  if (envs_.empty()) {
    const std::uint32_t initial =
        pool_controller_
            ? pool_controller_->initial_target(default_env_memory())
            : config_.warm_pool;
    for (std::uint32_t i = 0; i < initial; ++i) prewarm_env();
  }
  if (pool_controller_ != nullptr) arm_elastic_tick();
  arm_mobility_pump();
  if (faults_) {
    // Fault pump: one-shot (at=) crash rules fire against whichever
    // environment is live at that virtual time — preferring one with
    // sessions in flight, so the crash actually hurts.
    for (const sim::FaultKind kind : {sim::FaultKind::kContainerCrash,
                                      sim::FaultKind::kContainerOom}) {
      for (const sim::SimTime when : faults_->scheduled_times(kind)) {
        simulator.schedule_at(when, [this, kind]() {
          Env* victim = nullptr;
          for (auto& [id, env] : envs_) {
            (void)id;
            if (env->retired || !env->ready) continue;
            if (victim == nullptr) victim = env.get();
            if (env->inflight > 0) {
              victim = env.get();
              break;
            }
          }
          if (victim == nullptr) return;  // nothing alive to kill
          faults_->record_scheduled_fire(kind,
                                         server_->simulator().now());
          crash_env(*victim);
        });
      }
    }
  }
}

void Platform::submit_to_stream(std::uint64_t stream_id,
                                const workloads::OffloadRequest& request) {
  const auto stream_it = streams_.find(stream_id);
  assert(stream_it != streams_.end() && stream_it->second.open &&
         "submit on an unknown or closed session");
  Stream& stream = stream_it->second;
  stream.sequences.push_back(request.sequence);
  sim::Simulator& simulator = server_->simulator();
  if (outcomes_.size() <= request.sequence) {
    outcomes_.resize(request.sequence + 1);
    outcome_done_.resize(request.sequence + 1, 0);
  }
  metrics_.counter("sessions.offered").inc();
  auto session = std::allocate_shared<SessionState>(
      sim::StlSlabAllocator<SessionState>(session_pool_.get()));
  session->request = request;
  session->kind = request.task.kind;
  const android::MobileApp& app = app_for(session->kind);
  session->app_id = app.app_id();
  session->apk_bytes = app.apk_bytes();
  // The QoS identity rides on the session the request was submitted
  // through; an empty tenant falls back to per-app tenancy (the legacy
  // token-bucket key).
  session->stream_id = stream_id;
  session->klass = stream.config.priority;
  session->deadline = stream.config.deadline;
  session->tenant = stream.config.tenant.empty() ? session->app_id
                                                 : stream.config.tenant;
  metrics_
      .counter(std::string("qos.offered.") + qos::to_string(session->klass))
      .inc();
  // Execute the real kernel now; work units drive the simulated times.
  // Identical tasks replayed across platforms (§VI-D record/replay)
  // share one execution through a process-wide memo.
  session->executed = execute_task_cached(request.task);
  session->conn = std::make_unique<net::Connection>(
      *link_, rng_.fork(request.sequence + 1));
  session->conn->set_metrics(&metrics_);
  simulator.schedule_at(std::max(request.arrival, simulator.now()),
                        [this, session]() { on_arrival(session); });
}

void Platform::drain_run() {
  sim::Simulator& simulator = server_->simulator();
  simulator.run();
  if (faults_) {
    // With recovery disabled (or budgets exhausted mid-flight) sessions
    // can strand on a dead environment; the event queue drains with
    // their outcomes unrecorded. Mark them rejected so the caller sees
    // every request accounted for — and so the invariant report is the
    // only place a stranding hides.  Sessions stranded *in a class
    // queue* (every in-service session died first) give their slot back
    // so the admission ledger stays balanced.
    for (const auto& s : live_sessions_) {
      if (s->done) continue;
      if (admission_ != nullptr) {
        if (s->queued) {
          admission_->abandon_queued(s->klass, s->tenant,
                                     s->request.sequence);
          queued_sessions_.erase(s->request.sequence);
          s->queued = false;
        }
        if (s->admitted) release_slot(*s);
      }
      RequestOutcome outcome;
      outcome.request = s->request;
      outcome.phases = s->phases;
      outcome.completed_at = simulator.now();
      outcome.response = simulator.now() - s->request.arrival;
      outcome.rejected = true;
      outcome.reject_reason = RejectReason::kStranded;
      outcome.stranded = true;
      outcome.tenant = s->tenant;
      outcome.qos_class = s->klass;
      outcome.radio = config_.link.name;
      outcome.resumed = s->resumed;
      outcome.dispatch_attempts = s->dispatch_attempts;
      outcome.connect_attempts = s->connect_attempts;
      record_outcome(s->request.sequence, std::move(outcome));
      mark_done(*s);
      ++completed_;
      metrics_.counter("sessions.stranded").inc();
      metrics_
          .counter(std::string("qos.stranded.") + qos::to_string(s->klass))
          .inc();
      if (s->span_session != obs::kNoSpan) {
        trace_.annotate(s->span_session, "stranded", std::uint64_t{1});
      }
    }
    live_sessions_.clear();
    queued_sessions_.clear();
  }
  if (invariants_.invariant_count() > 0) invariants_.audit(simulator.now());
  trace_.close_open_spans(simulator.now());
  assert(completed_ == outcomes_.size());
}

void Platform::record_outcome(std::uint64_t sequence,
                              RequestOutcome outcome) {
  assert(sequence < outcomes_.size());
  outcomes_[sequence] = std::move(outcome);
  outcome_done_[sequence] = 1;
}

void Platform::on_arrival(std::shared_ptr<SessionState> s) {
  if (trace_.enabled()) {
    s->span_session = trace_.begin(s->request.sequence + 1, "session",
                                   "session", server_->simulator().now());
    trace_.annotate(s->span_session, "app", s->app_id);
    trace_.annotate(s->span_session, "device",
                    static_cast<std::uint64_t>(s->request.device_id));
    trace_.annotate(s->span_session, "class", qos::to_string(s->klass));
    trace_.annotate(s->span_session, "tenant", s->tenant);
    if (const auto it = streams_.find(s->stream_id); it != streams_.end()) {
      trace_.annotate(
          s->span_session, "tenant_weight",
          static_cast<std::uint64_t>(it->second.config.tenant_weight));
    }
    if (config_.shard_index >= 0) {
      trace_.annotate(s->span_session, "placement",
                      static_cast<std::uint64_t>(config_.shard_index));
    }
  }
  if (config_.adaptive_offloading) {
    DecisionState& history = decisions_[s->app_id];
    constexpr std::uint32_t kExplore = 3;  // first offloads gather data
    if (history.samples >= kExplore &&
        history.ewma_remote_s >= history.ewma_local_s) {
      // Run locally: no traffic, no cloud involvement.
      const device::MobileDevice& dev = device_for(s->request.device_id);
      const sim::SimDuration local =
          dev.local_execution_time(s->kind, s->executed);
      server_->simulator().schedule_in(local, [this, s, local]() {
        RequestOutcome outcome;
        outcome.request = s->request;
        outcome.completed_at = server_->simulator().now();
        outcome.response = local;
        outcome.local_time = local;
        outcome.speedup = 1.0;  // executed locally by choice
        const device::RadioProfile radio = radio_profile();
        const device::MobileDevice& dev2 =
            device_for(s->request.device_id);
        outcome.local_energy_mj =
            dev2.local_energy_mj(s->kind, s->executed, radio);
        outcome.offload_energy_mj = outcome.local_energy_mj;
        outcome.tenant = s->tenant;
        outcome.qos_class = s->klass;
        outcome.radio = config_.link.name;
        record_outcome(s->request.sequence, std::move(outcome));
        ++completed_;
        metrics_.counter("sessions.local").inc();
        metrics_
            .counter(std::string("qos.local.") + qos::to_string(s->klass))
            .inc();
        if (s->span_session != obs::kNoSpan) {
          trace_.annotate(s->span_session, "local", std::uint64_t{1});
          trace_.end(s->span_session, server_->simulator().now());
        }
        // Local runs refresh the local estimate.
        DecisionState& h = decisions_[s->app_id];
        const double local_s = sim::to_seconds(local);
        h.ewma_local_s = h.ewma_local_s == 0
                             ? local_s
                             : 0.7 * h.ewma_local_s + 0.3 * local_s;
      });
      return;
    }
  }
  // RAC request gate (docs/RAC.md): a blocked tenant is refused before
  // it consumes any platform resource, and the in-flight quota clips a
  // flooding tenant ahead of the QoS queues.  Every kNone is paired with
  // release() in finish_session via rac_slot.
  const AccessDeny deny =
      server_->access().admit(s->tenant, server_->simulator().now());
  if (deny != AccessDeny::kNone) {
    live_sessions_.push_back(s);
    ++live_by_tenant_[s->tenant];
    reject_session(s, deny == AccessDeny::kQuota
                          ? RejectReason::kQuotaExceeded
                          : RejectReason::kAccessDenied);
    return;
  }
  s->rac_slot = true;
  if (pool_controller_ != nullptr) {
    // Offloaded arrivals feed the forecaster; locally served requests
    // (the adaptive early-return above) never need warm capacity.
    pool_controller_->observe_arrival(s->klass);
    arm_elastic_tick();
  }
  live_sessions_.push_back(s);
  ++live_by_tenant_[s->tenant];
  attempt_connect(s);
}

void Platform::attempt_connect(std::shared_ptr<SessionState> s) {
  // The retry/backoff continuations carry no epoch guard; a session the
  // RAC block sweep rejected mid-connect must not rise again.
  if (s->done) return;
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  // Retries reuse the one "connect" span; it ends when a handshake lands.
  if (s->span_phase == obs::kNoSpan) begin_phase(*s, "connect");
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    // Radio detached (handoff outage): the handshake cannot even start;
    // the device re-attempts the instant the new radio attaches.  A
    // session whose connection the outage cut mid-retry counts as
    // resumed; a request merely *arriving* during the gap just waits.
    if (s->connect_attempts > 0) note_resumption(*s);
    s->phases.network_connection += stall;
    const std::uint64_t epoch = s->epoch;
    simulator.schedule_in(stall, [this, s, epoch]() {
      if (s->done || s->epoch != epoch) return;
      attempt_connect(s);
    });
    return;
  }
  ++s->connect_attempts;
  if (s->span_phase != obs::kNoSpan) {
    trace_.annotate(s->span_phase, "attempts",
                    static_cast<std::uint64_t>(s->connect_attempts));
  }
  const sim::SimDuration connect = s->conn->establish();
  s->phases.network_connection += connect;
  if (faults_ &&
      faults_->should_fire(sim::FaultKind::kNetDrop, simulator.now())) {
    // The handshake never completes; the client times out and retries
    // with exponential backoff until its attempt budget runs dry.
    if (s->connect_attempts >= config_.max_connect_attempts) {
      simulator.schedule_in(connect, [this, s]() {
        reject_session(s, RejectReason::kConnectFailed);
      });
      return;
    }
    const sim::SimDuration backoff =
        config_.connect_backoff *
        static_cast<sim::SimDuration>(1u << (s->connect_attempts - 1));
    s->phases.network_connection += backoff;
    simulator.schedule_in(connect + backoff,
                          [this, s]() { attempt_connect(s); });
    return;
  }
  simulator.schedule_in(connect, [this, s]() { on_connected(s); });
}

void Platform::on_connected(std::shared_ptr<SessionState> s) {
  if (s->done) return;  // swept by a RAC block while the handshake flew
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  s->connected_at = simulator.now();
  end_phase(*s);  // connect
  begin_phase(*s, "dispatch");
  const Calibration& cal = server_->calibration();

  sim::SimDuration platform_cost = cal.dispatcher_cost;
  if (config_.code_cache) {
    platform_cost += cal.warehouse_lookup_cost;
    s->cache_hit = server_->warehouse().lookup("ref:" + s->app_id);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "cache_hit",
                      static_cast<std::uint64_t>(s->cache_hit ? 1 : 0));
    }
  }
  // Request-based Access Controller: per-app analysis, once.
  if (server_->access().ensure_analyzed(s->app_id)) {
    platform_cost += cal.access_analysis_cost;
  } else {
    platform_cost += cal.access_check_cost;
  }

  // Request-based Access Controller front gate: requests of blocked
  // tenants never reach an environment (§IV-E).  Belt and braces after
  // the arrival gate — the tenant may have crossed the threshold while
  // this session's handshake was in flight.
  if (server_->access().allow_open(s->tenant, simulator.now()) !=
      AccessDeny::kNone) {
    reject_session(s, RejectReason::kAccessDenied);
    return;
  }

  // Admission front door (docs/LOADGEN.md, docs/QOS.md): per-tenant
  // token bucket, per-class utilization shedding, then a dispatch slot
  // or the class-aware bounded queue.
  if (admission_ != nullptr) {
    const Result<AdmissionController::Admitted> verdict = admission_->offer(
        AdmissionController::Offer{s->tenant, s->klass,
                                   s->request.sequence},
        simulator.now());
    if (!verdict) {
      reject_session(s, verdict.error());
      return;
    }
    if (*verdict == AdmissionController::Admitted::kQueued) {
      s->queued = true;
      s->enqueued_at = simulator.now();
      s->pending_lead = platform_cost;
      queued_sessions_.emplace(s->request.sequence, s);
      if (s->span_phase != obs::kNoSpan) {
        trace_.annotate(s->span_phase, "queued", std::uint64_t{1});
      }
      return;  // dispatched by maybe_start_queued() when a slot frees
    }
    s->admitted = true;
    ++admitted_sessions_;
  }

  dispatch(s, platform_cost);
}

void Platform::maybe_start_queued() {
  if (admission_ == nullptr) return;
  sim::Simulator& simulator = server_->simulator();
  while (admission_->can_start_queued()) {
    // The scheduler decides which class/tenant goes next (strict priority
    // + weighted DRR); finished sessions were already removed from the
    // queue by finish_session, so every pop maps to a live session.
    const auto popped = admission_->pop_queued(simulator.now());
    if (!popped) break;
    const auto it = queued_sessions_.find(popped->id);
    assert(it != queued_sessions_.end() &&
           "scheduler echoed an id the platform is not tracking");
    std::shared_ptr<SessionState> s = it->second;
    queued_sessions_.erase(it);
    s->queued = false;
    s->admitted = true;
    ++admitted_sessions_;
    s->queue_wait = popped->waited;
    s->drr_deficit = popped->deficit_after;
    SessionScope scope(*this, *s);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "queue_wait_us",
                      static_cast<std::uint64_t>(s->queue_wait));
      trace_.annotate(s->span_phase, "deficit", s->drr_deficit);
    }
    dispatch(s, s->pending_lead);
  }
}

void Platform::dispatch(std::shared_ptr<SessionState> s,
                        sim::SimDuration lead_cost) {
  sim::Simulator& simulator = server_->simulator();
  ++s->dispatch_attempts;
  EnvRecord* record =
      dispatcher_->assign(s->request, s->app_id, simulator.now(),
                          class_backlog_threshold(s->klass), s->klass);
  Env* env = nullptr;
  if (record != nullptr) {
    const auto it = envs_.find(record->id);
    assert(it != envs_.end());
    env = it->second.get();
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(lead_cost, [this, s, env, epoch]() {
    if (s->done || s->epoch != epoch) return;  // aborted meanwhile
    SessionScope scope(*this, *s);
    Env* target = env;
    bool claimed_pool = false;
    bool fresh = false;
    if (target == nullptr || target->retired || target->draining) {
      const std::string key =
          dispatcher_->binding_key(s->request, s->app_id);
      // A warm-pool environment (pre-booted, unclaimed) is rebound to
      // this device instead of paying a cold start.  Draining capacity
      // stopped leasing the moment its drain began.
      if (!claimable_.empty()) {
        Env* claimed = claimable_.begin()->second;  // lowest id
        if (claimed->ready) {
          // Prewarm lead time: how far ahead of demand the controller
          // had this environment standing warm.
          metrics_.histogram("elastic.prewarm.lead_ms")
              .observe(sim::to_millis(server_->simulator().now() -
                                      claimed->ready_at));
        }
        claimed->pool = false;
        claimed->binding_key = key;
        server_->env_db().rebind(claimed->id, key);
        sync_env(*claimed);
        target = claimed;
        claimed_pool = true;
      } else {
        // Switch the phase before provisioning so faults fired during
        // the (synchronous) container start annotate the boot, not the
        // dispatch decision.
        begin_phase(*s, "provision");
        fresh = true;
        target = &provision_env(key, server_->simulator().now());
      }
    }
    if (!fresh) {
      fresh = !target->ready;
      begin_phase(*s, fresh ? "provision" : "reuse");
    }
    s->fresh_env = fresh;
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "env_id",
                      static_cast<std::uint64_t>(target->id));
      if (claimed_pool) {
        trace_.annotate(s->span_phase, "warm_pool", std::uint64_t{1});
      }
    }
    s->env = target;
    ++target->bound;
    ++target->inflight;  // pins the env against idle reclamation
    if (target->ready && target->inflight == 1) {
      lifecycle_.transition(target->id, elastic::CacState::kLeased,
                            server_->simulator().now());
    }
    sync_env(*target);
    if (target->ready) {
      on_env_ready(s);
    } else {
      target->waiters.push_back([this, s, epoch]() {
        if (s->done || s->epoch != epoch) return;
        on_env_ready(s);
      });
    }
  });
}

void Platform::on_env_ready(std::shared_ptr<SessionState> s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  if (s->env->failed) {
    // Provisioning failed (host capacity): reject the request.
    reject_session(s, RejectReason::kCapacity);
    return;
  }
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    // Handoff outage cut the session between dispatch and upload: the
    // environment stays bound and the upload starts when the new radio
    // attaches (the wait lands in runtime_preparation, which is wall
    // time from the device's perspective).
    note_resumption(*s);
    const std::uint64_t epoch = s->epoch;
    simulator.schedule_in(stall, [this, s, epoch]() {
      if (s->done || s->epoch != epoch) return;
      on_env_ready(s);
    });
    return;
  }
  s->phases.runtime_preparation = simulator.now() - s->connected_at;
  // The paper's headline latency split: what a session waits when its
  // environment must boot vs when a warm one is rebound.
  metrics_
      .histogram(s->fresh_env ? "session.prep.provision_ms"
                              : "session.prep.reuse_ms")
      .observe(sim::to_millis(s->phases.runtime_preparation));
  metrics_
      .counter(s->fresh_env ? "elastic.cold_boots" : "elastic.warm_hits")
      .inc();
  {
    const double hits = static_cast<double>(
        metrics_.counter("elastic.warm_hits").value());
    const double cold = static_cast<double>(
        metrics_.counter("elastic.cold_boots").value());
    metrics_.gauge("elastic.warm_hit_ratio")
        .set(hits / std::max(1.0, hits + cold));
  }
  begin_phase(*s, "transfer");

  // Determine the code push. With a code cache the warehouse answer
  // rules; without one the client must push into every environment that
  // has not seen this app yet (the duplicate transfer of Obs. 3).
  bool have_code;
  if (config_.code_cache) {
    have_code = s->cache_hit;
  } else {
    have_code = s->env->pushed_apps.contains(s->app_id);
    s->cache_hit = have_code;
  }

  const device::MobileDevice& dev = device_for(s->request.device_id);
  device::OffloadClient client(dev);
  const device::UploadPlan plan =
      client.plan_upload(s->request, s->apk_bytes, have_code);

  // Upload: control handshake, optional code, files + parameters.
  sim::SimDuration upload = dev.config().serialize_cost;
  upload += s->conn->upload(net::Message{net::MessageType::kControl,
                                         client.protocol().request_control,
                                         s->app_id});
  upload += s->conn->download(net::Message{
      net::MessageType::kControl, client.protocol().response_control,
      s->app_id});
  if (plan.push_code) {
    upload += s->conn->upload(net::Message{net::MessageType::kMobileCode,
                                           plan.code_bytes, s->app_id});
    s->env->pushed_apps.insert(s->app_id);
    if (config_.code_cache) {
      server_->warehouse().store("ref:" + s->app_id, plan.code_bytes);
    }
  }
  const std::uint64_t payload = plan.file_bytes + plan.param_bytes;
  if (payload > 0) {
    upload += s->conn->upload(net::Message{net::MessageType::kFileParams,
                                           payload, s->app_id});
  }


  // Server-side ingest of the arriving bytes: shared tmpfs (free relative
  // to the link) or the environment's disk (virtualized for VMs).
  const std::uint64_t ingest_bytes = plan.code_bytes + payload;
  sim::SimDuration ingest = 0;
  if (ingest_bytes > 0) {
    bool staged = false;
    if (config_.sharing_offload_io) {
      staged = server_->shared_layer().stage_request_files(
          s->request.sequence, payload, simulator.now());
      if (staged) {
        ingest = server_->shared_layer().io_time(ingest_bytes);
        s->staged = payload > 0;
      }
    }
    if (config_.sharing_offload_io && !staged && payload > 0) {
      // In-memory layer full: spill this request's files to disk (the
      // tradeoff §IV-C accepts — volatility and size are bounded because
      // offload payloads are small, but the fallback must exist).
      s->spilled_to_disk = true;
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = native;
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
    if (!config_.sharing_offload_io) {
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = s->env->is_vm
                   ? static_cast<sim::SimDuration>(
                         static_cast<double>(native) /
                         server_->calibration().vm_io_factor)
                   : native;
      // The write hits the host disk (the Fig. 2 I/O burst after boot).
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
  }

  s->upload_time = upload;
  const sim::SimDuration transfer = std::max(upload, ingest);
  s->phases.data_transfer = transfer;
  if (s->span_phase != obs::kNoSpan) {
    trace_.annotate(s->span_phase, "push_code",
                    static_cast<std::uint64_t>(plan.push_code ? 1 : 0));
    trace_.annotate(s->span_phase, "bytes",
                    static_cast<std::uint64_t>(ingest_bytes));
    if (s->spilled_to_disk) {
      trace_.annotate(s->span_phase, "spilled", std::uint64_t{1});
    }
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(transfer, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-transfer
    on_uploaded(s);
  });
}

void Platform::on_uploaded(std::shared_ptr<SessionState> s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  begin_phase(*s, "execute");  // transfer ends now; queueing included
  Env& env = *s->env;

  // The controller filters every workflow leaving the container (§IV-E);
  // honest benchmark apps hold all of these grants.  Adversarial streams
  // additionally probe the operations their SessionConfig lists
  // (docs/RAC.md): each disallowed probe lands in the tenant's violation
  // ledger, and crossing the threshold blocks the tenant on the spot —
  // including this very session, swept by the on_block hook mid-handler.
  auto& access = server_->access();
  if (s->executed.units.io_bytes > 0) {
    access.check(s->app_id, s->tenant, Operation::kReadOffloadFile,
                 simulator.now());
    access.check(s->app_id, s->tenant, Operation::kWriteOffloadFile,
                 simulator.now());
  }
  access.check(s->app_id, s->tenant, Operation::kBinderCall,
               simulator.now());
  if (config_.code_cache) {
    access.check(s->app_id, s->tenant, Operation::kReadWarehouse,
                 simulator.now());
  }
  if (const auto stream_it = streams_.find(s->stream_id);
      stream_it != streams_.end()) {
    for (const Operation op : stream_it->second.config.probe_ops) {
      access.check(s->app_id, s->tenant, op, simulator.now());
      if (s->done) break;  // probe crossed the threshold; we were swept
    }
  }
  if (s->done) return;  // self-evicted by the RAC block sweep

  // ClassLoader: first load per environment pays dex verification.
  android::ClassLoader& loader =
      env.is_vm ? env.vm_loader : env.cac->classloader();
  const sim::SimDuration classload = loader.load(s->app_id, s->apk_bytes);

  // Binder traffic of the task (exercises the Android Container Driver
  // for container-backed environments).
  sim::SimDuration binder_cost = 0;
  const auto workload = workloads::make_workload(s->kind);
  const std::uint32_t binder_calls = workload->app().binder_calls_per_task;
  if (!env.is_vm && env.cac->container() != nullptr) {
    const kernel::DevNsId ns = env.cac->container()->devns();
    for (std::uint32_t i = 0; i < binder_calls; ++i) {
      const auto result = server_->kernel().syscalls().invoke(
          kernel::kSysBinderTransact, ns, 512);
      binder_cost += result.cost;
    }
  } else {
    binder_cost = binder_calls * 2 *
                  kernel::BinderDriver::transaction_cost(512);
  }

  // Compute time: native units rate, degraded by the platform CPU factor,
  // plus the offloading I/O the task performs.
  const sim::SimDuration native =
      server_->native_compute_time(s->kind, s->executed.units.compute);
  const auto cpu = static_cast<sim::SimDuration>(
      static_cast<double>(native) / cpu_factor());
  sim::SimDuration io;
  if (s->spilled_to_disk) {
    // Spilled inputs read back from disk regardless of the shared layer.
    const Calibration& cal = server_->calibration();
    io = server_->disk().service_time(s->executed.units.io_bytes, true) +
         static_cast<sim::SimDuration>(s->request.task.io_ops) *
             sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  } else {
    io = compute_io_time(env, s->executed.units.io_bytes,
                         s->request.task.io_ops);
  }
  if (config_.sharing_offload_io && !s->spilled_to_disk) {
    // Burn after reading: consume the staged files.
    server_->shared_layer().consume_request_files(s->request.sequence,
                                                  simulator.now());
    s->staged = false;
  } else if (s->executed.units.io_bytes > 0) {
    // The task reads its inputs back off the disk.
    server_->disk().submit(fs::IoKind::kRead, s->executed.units.io_bytes,
                           true, []() {});
  }

  // Interactive workloads keep chatting with the device while executing
  // (game-state sync, COMET-style): each round is a small message pair
  // plus device-side handling, serialized with the computation. Locally
  // run code gets this interaction for free, which is why chatty apps
  // profit less from offloading than their compute ratio suggests.
  sim::SimDuration interaction = 0;
  for (std::uint32_t round = 0; round < s->request.task.control_rounds;
       ++round) {
    s->conn->upload(net::Message{net::MessageType::kControl, 48, s->app_id});
    s->conn->download(
        net::Message{net::MessageType::kControl, 48, s->app_id});
    interaction += config_.link.rtt + sim::from_millis(60);
  }

  // Processor sharing: when more environments compute than the server
  // has cores, everybody slows proportionally (admission-time
  // approximation; exact redistribution is unnecessary at the paper's
  // 5-device scale but matters for the consolidation-density bench).
  const double concurrency =
      static_cast<double>(server_->monitor().running_jobs() + 1);
  const double cores = static_cast<double>(server_->calibration().server_cores);
  const double contention = std::max(1.0, concurrency / cores);
  const sim::SimDuration duration = static_cast<sim::SimDuration>(
      static_cast<double>(classload + binder_cost + cpu + io + interaction) *
      contention);
  const sim::SimTime start = std::max(simulator.now(), env.busy_until);
  const sim::SimTime done = start + duration;
  env.busy_until = done;
  if (EnvRecord* record = server_->env_db().find(env.id)) {
    if (!env.draining) record->state = EnvState::kBusy;
    record->busy_until = done;
  }
  server_->monitor().record_cpu(start, done, 1.0);
  server_->monitor().job_started(s->klass);
  s->computing = true;
  ++computing_sessions_;
  if (faults_) {
    // Container crash / OOM-kill: the environment dies halfway through
    // this job. One consult per job and per kind keeps both substreams
    // advancing deterministically regardless of which one fires.
    const bool crash_fire =
        faults_->should_fire(sim::FaultKind::kContainerCrash,
                             simulator.now());
    const bool oom_fire = faults_->should_fire(
        sim::FaultKind::kContainerOom, simulator.now());
    if (crash_fire || oom_fire) {
      const std::uint32_t env_id = env.id;
      simulator.schedule_at(start + duration / 2, [this, env_id]() {
        const auto it = envs_.find(env_id);
        if (it == envs_.end() || it->second->retired) return;
        crash_env(*it->second);
      });
    }
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_at(done, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-compute
    on_computed(s);
  });
}

void Platform::on_computed(std::shared_ptr<SessionState> s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  release_job(*s);
  Env& env = *s->env;
  // Computation phase spans upload-end → compute-end (queueing included).
  s->phases.computation = simulator.now() -
                          (s->connected_at + s->phases.runtime_preparation +
                           s->phases.data_transfer);
  begin_phase(*s, "teardown");  // result download + completion control
  ++env.jobs_served;
  if (EnvRecord* record = server_->env_db().find(env.id)) {
    if (record->busy_until <= simulator.now() &&
        record->state == EnvState::kBusy) {
      record->state = EnvState::kIdle;
    }
    ++record->jobs_executed;
  }
  if (config_.code_cache) {
    server_->warehouse().record_execution("ref:" + s->app_id, env.id);
  }

  // Result + completion control flow back.
  device::OffloadClient client(device_for(s->request.device_id));
  sim::SimDuration download = s->conn->download(net::Message{
      net::MessageType::kResult, s->request.task.result_bytes, s->app_id});
  download += s->conn->upload(net::Message{
      net::MessageType::kControl, client.protocol().completion_control,
      s->app_id});
  s->download_time = download;
  s->phases.data_transfer += download;
  // Handoff outage at result-delivery time: the download waits for the
  // new radio to attach (the computed result is already spooled server
  // side), then transfers at the new radio's rates.
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    note_resumption(*s);
    s->phases.data_transfer += stall;
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(stall + download, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-download
    complete(s);
  });
}

void Platform::complete(std::shared_ptr<SessionState> s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  end_phase(*s);  // teardown
  RequestOutcome outcome;
  outcome.request = s->request;
  outcome.phases = s->phases;
  outcome.completed_at = simulator.now();
  outcome.response = simulator.now() - s->request.arrival;
  const device::MobileDevice& dev = device_for(s->request.device_id);
  outcome.local_time = dev.local_execution_time(s->kind, s->executed);
  outcome.speedup = outcome.response > 0
                        ? static_cast<double>(outcome.local_time) /
                              static_cast<double>(outcome.response)
                        : 0.0;
  const device::RadioProfile radio = radio_profile();
  outcome.upload_time = s->upload_time;
  outcome.download_time = s->download_time;
  outcome.offload_energy_mj = offload_energy_mj(
      s->phases, s->upload_time, s->download_time, radio);
  outcome.local_energy_mj = dev.local_energy_mj(s->kind, s->executed, radio);
  outcome.traffic = s->conn->traffic();
  outcome.env_id = s->env->id;
  outcome.code_cache_hit = s->cache_hit;
  outcome.queue_wait = s->queue_wait;
  outcome.dispatch_attempts = s->dispatch_attempts;
  outcome.connect_attempts = s->connect_attempts;
  outcome.recovered = s->recovered;
  outcome.radio = config_.link.name;
  outcome.resumed = s->resumed;
  outcome.tenant = s->tenant;
  outcome.qos_class = s->klass;
  outcome.deadline_missed =
      s->deadline > 0 && outcome.response > s->deadline;
  env_traffic_[s->env->id].merge(s->conn->traffic());

  metrics_.counter("sessions.completed").inc();
  metrics_
      .counter(std::string("qos.completed.") + qos::to_string(s->klass))
      .inc();
  if (outcome.deadline_missed) {
    metrics_.counter("qos.deadline.missed").inc();
  }
  if (s->cache_hit) metrics_.counter("sessions.cache_hits").inc();
  if (s->recovered) metrics_.counter("sessions.recovered").inc();
  metrics_.histogram("session.response_ms")
      .observe(sim::to_millis(outcome.response));
  metrics_
      .histogram(std::string("qos.response_ms.") + qos::to_string(s->klass))
      .observe(sim::to_millis(outcome.response));
  if (admission_ != nullptr) {
    // Goodput latency: responses of sessions that made it through
    // admission (the saturation bench's p99-of-accepted curve).
    metrics_.histogram("session.accepted.response_ms")
        .observe(sim::to_millis(outcome.response));
  }
  if (s->span_session != obs::kNoSpan) {
    trace_.annotate(s->span_session, "env_id",
                    static_cast<std::uint64_t>(s->env->id));
    trace_.annotate(s->span_session, "cache_hit",
                    static_cast<std::uint64_t>(s->cache_hit ? 1 : 0));
    if (s->recovered) {
      trace_.annotate(s->span_session, "recovered", std::uint64_t{1});
    }
    trace_.annotate(s->span_session, "speedup", outcome.speedup);
    if (outcome.deadline_missed) {
      trace_.annotate(s->span_session, "deadline_missed", std::uint64_t{1});
    }
    trace_.end(s->span_session, simulator.now());
  }

  record_outcome(s->request.sequence, std::move(outcome));

  unbind_session(*s);
  finish_session(*s);
  if (completion_observer_) {
    completion_observer_(outcomes_[s->request.sequence]);
  }

  if (config_.adaptive_offloading) {
    DecisionState& history = decisions_[s->app_id];
    const double remote_s =
        sim::to_seconds(outcomes_[s->request.sequence].response);
    const double local_s =
        sim::to_seconds(outcomes_[s->request.sequence].local_time);
    history.ewma_remote_s = history.samples == 0
                                ? remote_s
                                : 0.7 * history.ewma_remote_s +
                                      0.3 * remote_s;
    history.ewma_local_s = history.ewma_local_s == 0
                               ? local_s
                               : 0.7 * history.ewma_local_s + 0.3 * local_s;
    ++history.samples;
  }
}

// ---------------------------------------------------------------------
// Fault handling and recovery

void Platform::arm_mobility_pump() {
  if (config_.mobility.empty()) return;
  // Each run replays the plan from the base radio; a previous run's
  // handoffs must not leak into this one.
  config_.link = base_link_;
  link_->set_config(base_link_);
  link_down_until_ = 0;
  sim::Simulator& simulator = server_->simulator();
  const sim::SimTime start = simulator.now();
  for (const HandoffEvent& event : config_.mobility) {
    simulator.schedule_at(start + event.at,
                          [this, event]() { apply_handoff(event); });
  }
}

void Platform::apply_handoff(const HandoffEvent& event) {
  sim::Simulator& simulator = server_->simulator();
  const std::string from = config_.link.name;
  config_.link = event.to;
  link_->set_config(event.to);
  metrics_.counter("mobility.handoffs").inc();
  metrics_
      .counter(std::string("mobility.handoff.") + from + "_to_" +
               event.to.name)
      .inc();
  if (event.outage > 0) {
    link_down_until_ =
        std::max(link_down_until_, simulator.now() + event.outage);
    metrics_.counter("mobility.outages").inc();
    metrics_.histogram("mobility.outage_ms")
        .observe(sim::to_millis(event.outage));
  }
  if (trace_.enabled()) {
    trace_.instant(kPlatformTrack,
                   ("handoff " + from + "→" + event.to.name).c_str(),
                   "mobility", simulator.now());
  }
}

void Platform::note_resumption(SessionState& s) {
  if (s.resumed) return;  // count each session once, however often it stalls
  s.resumed = true;
  metrics_.counter("mobility.sessions_resumed").inc();
  if (s.span_session != obs::kNoSpan) {
    trace_.annotate(s.span_session, "resumed", std::uint64_t{1});
  }
}

void Platform::crash_env(Env& env) {
  if (env.retired) return;
  metrics_.counter("env.crashes").inc();
  env.crashed = true;
  env.retired = true;
  env.ready = false;
  env.commit_end = server_->simulator().now();
  server_->monitor().env_down(env.id);
  lifecycle_.transition(env.id, elastic::CacState::kReclaimed,
                        server_->simulator().now());
  retire_record(env);
  if (env.is_vm) {
    server_->hypervisor().destroy(env.vm_id);
  } else if (env.cac) {
    env.cac->crash(server_->kernel());
  }
  sync_env(env);
  // Sessions bound to the dead environment: neutralize every scheduled
  // continuation (epoch bump) and give back what they held — Monitor job
  // slots and staged one-shot files die with the container. The sessions
  // stay *bound*: the Monitor has not discovered the crash yet, and the
  // session-env-liveness invariant tolerates exactly that window.
  for (const auto& s : live_sessions_) {
    if (s->done || s->env != &env) continue;
    ++s->epoch;
    if (trace_.enabled()) {
      trace_.instant(s->request.sequence + 1, "env_crash", "fault",
                     server_->simulator().now());
    }
    if (s->computing) release_job(*s);
    if (s->staged) {
      server_->shared_layer().release_request_files(s->request.sequence);
      s->staged = false;
    }
  }
  server_->monitor().notify_crash(env.id);
}

void Platform::recover_env(std::uint32_t env_id) {
  // The Monitor's health sweep found the corpse. Without crash recovery
  // the platform does nothing — sessions stay bound to the dead CID and
  // the invariant harness is what notices.
  if (!config_.crash_recovery) return;
  const auto it = envs_.find(env_id);
  if (it == envs_.end()) return;
  Env& dead = *it->second;
  std::vector<std::shared_ptr<SessionState>> victims;
  for (const auto& s : live_sessions_) {
    if (!s->done && s->env == &dead) victims.push_back(s);
  }
  for (const auto& s : victims) {
    if (dead.inflight > 0) --dead.inflight;
    --dead.bound;
    s->env = nullptr;
    sync_env(dead);
    ++s->epoch;
    if (s->dispatch_attempts >= config_.max_redispatch) {
      reject_session(s, RejectReason::kRedispatchExhausted);
      continue;
    }
    // Re-dispatch over the existing connection: the device re-sends its
    // request and the session restarts from runtime preparation.
    s->recovered = true;
    s->connected_at = server_->simulator().now();
    {
      SessionScope scope(*this, *s);
      begin_phase(*s, "redispatch");  // closes the span the crash cut off
    }
    dispatch(s, server_->calibration().dispatcher_cost);
  }
}

void Platform::on_tenant_blocked(const std::string& tenant,
                                 sim::SimTime now) {
  // The violation ledger crossed the threshold: evict every live session
  // of the offender *now*, so a blocked tenant consumes zero container
  // time past block onset (the rac-blocked-isolation invariant).
  if (trace_.enabled()) {
    const obs::SpanId mark =
        trace_.instant(kPlatformTrack, "rac_block", "rac", now);
    trace_.annotate(mark, "tenant", tenant);
  }
  // Collect first: reject_session mutates live_sessions_.
  std::vector<std::shared_ptr<SessionState>> victims;
  for (const auto& s : live_sessions_) {
    if (!s->done && s->tenant == tenant) victims.push_back(s);
  }
  for (const auto& s : victims) {
    ++s->epoch;  // neutralize every scheduled continuation
    if (s->span_session != obs::kNoSpan) {
      trace_.annotate(s->span_session, "rac_swept", std::uint64_t{1});
    }
    reject_session(s, RejectReason::kAccessDenied);
  }
}

void Platform::reject_session(std::shared_ptr<SessionState> s,
                              RejectReason reason) {
  if (s->done) return;
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  metrics_.counter("sessions.rejected").inc();
  metrics_
      .counter(std::string("sessions.rejected.") + to_string(reason))
      .inc();
  metrics_
      .counter(std::string("qos.rejected.") + qos::to_string(s->klass))
      .inc();
  // Typed reject reply: the device learns *why* it was turned away
  // (back-off hint) at the cost of one small downlink frame.  Sessions
  // whose connection never established have nowhere to send it.
  if (reason != RejectReason::kConnectFailed && s->conn != nullptr) {
    s->conn->download(net::Message{net::MessageType::kReject,
                                   net::kRejectReplyBytes, s->app_id});
  }
  end_phase(*s);
  if (s->span_session != obs::kNoSpan) {
    trace_.annotate(s->span_session, "rejected", std::uint64_t{1});
    trace_.annotate(s->span_session, "reject_reason", to_string(reason));
    trace_.end(s->span_session, simulator.now());
  }
  RequestOutcome outcome;
  outcome.request = s->request;
  outcome.phases = s->phases;
  outcome.completed_at = simulator.now();
  outcome.response = simulator.now() - s->request.arrival;
  outcome.rejected = true;
  outcome.reject_reason = reason;
  outcome.queue_wait = s->queue_wait;
  outcome.tenant = s->tenant;
  outcome.qos_class = s->klass;
  outcome.radio = config_.link.name;
  outcome.resumed = s->resumed;
  outcome.traffic = s->conn ? s->conn->traffic() : net::TrafficAccount{};
  outcome.dispatch_attempts = s->dispatch_attempts;
  outcome.connect_attempts = s->connect_attempts;
  record_outcome(s->request.sequence, std::move(outcome));
  unbind_session(*s);
  finish_session(*s);
  if (completion_observer_) {
    completion_observer_(outcomes_[s->request.sequence]);
  }
}

void Platform::unbind_session(SessionState& s) {
  if (s.computing) release_job(s);
  if (s.staged) {
    server_->shared_layer().release_request_files(s.request.sequence);
    s.staged = false;
  }
  if (s.env != nullptr) {
    if (s.env->inflight > 0) --s.env->inflight;
    --s.env->bound;
    sync_env(*s.env);
    if (!s.env->retired && s.env->ready && s.env->inflight == 0) {
      if (s.env->draining) {
        // Last in-flight session left a draining environment: reclaim.
        finish_drain(*s.env);
      } else {
        lifecycle_.transition(s.env->id, elastic::CacState::kWarmIdle,
                              server_->simulator().now());
        schedule_reclaim(*s.env);
      }
    }
    s.env = nullptr;
  }
}

void Platform::release_job(SessionState& s) {
  server_->monitor().job_finished(s.klass);
  s.computing = false;
  --computing_sessions_;
}

void Platform::release_slot(SessionState& s) {
  admission_->release();
  s.admitted = false;
  --admitted_sessions_;
}

void Platform::finish_session(SessionState& s) {
  mark_done(s);
  ++completed_;
  if (s.rac_slot) {
    server_->access().release(s.tenant);
    s.rac_slot = false;
  }
  for (auto it = live_sessions_.begin(); it != live_sessions_.end(); ++it) {
    if (it->get() == &s) {
      live_sessions_.erase(it);
      break;
    }
  }
  if (admission_ != nullptr) {
    if (s.queued) {
      // Rejected while still waiting in a class queue (e.g. the access
      // controller blocked its app meanwhile); pull it out of the
      // scheduler so no stale id is ever echoed by pop_queued().
      admission_->abandon_queued(s.klass, s.tenant, s.request.sequence);
      queued_sessions_.erase(s.request.sequence);
      s.queued = false;
    }
    if (s.admitted) release_slot(s);
    maybe_start_queued();
  }
}

void Platform::mark_done(SessionState& s) {
  s.done = true;
  --live_by_tenant_[s.tenant];
  if (s.env != nullptr) {
    // Stranded at drain: still pinning its environment, no longer bound.
    --s.env->bound;
    sync_env(*s.env);
  }
}

void Platform::sync_env(Env& env) {
  const bool mismatch = env.bound != env.inflight;
  if (mismatch != env.pin_mismatch) {
    env.pin_mismatch = mismatch;
    if (mismatch) {
      ++pin_mismatched_envs_;
    } else {
      --pin_mismatched_envs_;
    }
  }
  if (env.retired && !env.failed && env.bound > 0) {
    dead_bound_envs_.insert(env.id);
  } else if (!dead_bound_envs_.empty()) {
    dead_bound_envs_.erase(env.id);
  }
  const bool claimable = env.pool && !env.retired && !env.draining;
  const std::uint64_t commit = claimable ? env.memory_bytes : 0;
  pool_committed_bytes_ = pool_committed_bytes_ - env.pool_commit + commit;
  env.pool_commit = commit;
  if (claimable != env.claimable) {
    env.claimable = claimable;
    if (claimable) {
      claimable_.emplace(env.id, &env);
    } else {
      claimable_.erase(env.id);
    }
  }
  if (!env.watched && invariants_.invariant_count() > 0) {
    env.watched = true;
    watched_envs_.push_back(&env);
  }
}

void Platform::after_event() {
  invariants_.run(server_->simulator().now());
  // An environment that still violates #7 or #12 stays watched, so the
  // check keeps reporting it on every event, as the scan would.
  std::erase_if(watched_envs_, [this](Env* env) {
    if (db_mismatch(*env) || lifecycle_mismatch(*env)) return false;
    env->watched = false;
    return true;
  });
}

std::optional<std::string> Platform::db_mismatch(const Env& env) const {
  const EnvRecord* record = server_->env_db().find(env.id);
  if (record == nullptr) {
    return "env " + std::to_string(env.id) + " missing from DB";
  }
  const bool record_retired = record->state == EnvState::kRetired;
  if (record_retired != env.retired) {
    return "env " + std::to_string(env.id) + " retired=" +
           (env.retired ? "1" : "0") + " but DB says " +
           to_string(record->state);
  }
  if (!env.retired && env.ready && !env.is_vm &&
      (env.cac == nullptr || !env.cac->booted())) {
    return "env " + std::to_string(env.id) +
           " serving without a booted container";
  }
  return std::nullopt;
}

std::optional<std::string> Platform::lifecycle_mismatch(
    const Env& env) const {
  elastic::CacState expected;
  if (env.retired) {
    expected = elastic::CacState::kReclaimed;
  } else if (env.draining) {
    expected = elastic::CacState::kDraining;
  } else if (!env.ready) {
    expected = elastic::CacState::kBooting;
  } else if (env.inflight > 0) {
    expected = elastic::CacState::kLeased;
  } else {
    expected = elastic::CacState::kWarmIdle;
  }
  if (lifecycle_.state(env.id) == expected) return std::nullopt;
  return "env " + std::to_string(env.id) + " is " +
         elastic::to_string(lifecycle_.state(env.id)) +
         ", engine state implies " + elastic::to_string(expected);
}

// Each invariant registers a per-event check over the ledgers above and,
// where the check does not read the components directly, the full scan
// the audit holds it to (docs/FAULTS.md).
void Platform::register_invariants() {
  // 1. No session is bound to a dead environment — except during the
  //    Monitor's detection window (crash reported, sweep not yet run)
  //    and for provision-failure envs, whose rejection is a scheduled
  //    zero-delay event.
  invariants_.add_invariant(
      "session-env-liveness",
      [this]() -> std::optional<std::string> {
        for (const std::uint32_t id : dead_bound_envs_) {
          if (server_->monitor().crash_pending(id)) continue;
          return "dead env " + std::to_string(id) +
                 " still has bound sessions";
        }
        return std::nullopt;
      },
      [this]() -> std::optional<std::string> {
        for (const auto& s : live_sessions_) {
          if (s->done || s->env == nullptr) continue;
          const Env& env = *s->env;
          if (!env.retired || env.failed) continue;
          if (server_->monitor().crash_pending(env.id)) continue;
          return "request " + std::to_string(s->request.sequence) +
                 " bound to dead env " + std::to_string(env.id);
        }
        return std::nullopt;
      });
  // 2. The AID→CID affinity map only references live containers.
  invariants_.add_invariant(
      "affinity-live",
      [this]() -> std::optional<std::string> {
        const std::size_t stale = server_->warehouse().retired_references();
        if (stale == 0) return std::nullopt;
        return std::to_string(stale) + " mappings reference retired envs";
      },
      [this]() -> std::optional<std::string> {
        std::optional<std::string> violation;
        server_->warehouse().for_each_entry([&](const CacheEntry& entry) {
          if (violation.has_value()) return;
          for (const EnvId env_id : entry.containers) {
            const EnvRecord* record = server_->env_db().find(env_id);
            if (record == nullptr ||
                record->state == EnvState::kRetired) {
              violation = entry.reference + " maps to dead env " +
                          std::to_string(env_id);
              return;
            }
          }
        });
        return violation;
      });
  // 3. The shared tmpfs holds exactly the live offload files.
  invariants_.add_invariant(
      "tmpfs-accounting", [this]() -> std::optional<std::string> {
        const auto& shared = server_->shared_layer();
        if (shared.offload_io().used_bytes() == shared.staged_bytes()) {
          return std::nullopt;
        }
        return "tmpfs holds " +
               std::to_string(shared.offload_io().used_bytes()) +
               " bytes, ledger says " +
               std::to_string(shared.staged_bytes());
      });
  // 4. "Burn after reading" actually frees: one file per staged request.
  invariants_.add_invariant(
      "burn-after-reading", [this]() -> std::optional<std::string> {
        const auto& shared = server_->shared_layer();
        if (shared.offload_io().file_count() == shared.staged_count()) {
          return std::nullopt;
        }
        return std::to_string(shared.offload_io().file_count()) +
               " files for " + std::to_string(shared.staged_count()) +
               " staged requests";
      });
  // 5. Monitor job slots match the sessions actually computing.
  const auto monitor_jobs =
      [this](std::uint32_t computing) -> std::optional<std::string> {
    if (computing == server_->monitor().running_jobs()) {
      return std::nullopt;
    }
    return "monitor reports " +
           std::to_string(server_->monitor().running_jobs()) + " jobs, " +
           std::to_string(computing) + " sessions computing";
  };
  invariants_.add_invariant(
      "monitor-jobs",
      [this, monitor_jobs]() { return monitor_jobs(computing_sessions_); },
      [this, monitor_jobs]() {
        std::uint32_t computing = 0;
        for (const auto& s : live_sessions_) {
          if (!s->done && s->computing) ++computing;
        }
        return monitor_jobs(computing);
      });
  // 6. Every environment's inflight pin count equals its bound sessions.
  invariants_.add_invariant(
      "inflight-consistency",
      [this]() -> std::optional<std::string> {
        if (pin_mismatched_envs_ == 0) return std::nullopt;
        return std::to_string(pin_mismatched_envs_) +
               " envs pin a count other than their bound sessions";
      },
      [this]() -> std::optional<std::string> {
        std::vector<std::uint32_t> bound(next_env_id_, 0);  // by env id
        for (const auto& s : live_sessions_) {
          if (!s->done && s->env != nullptr) ++bound[s->env->id];
        }
        for (const auto& [id, env] : envs_) {
          if (bound[id] != env->inflight) {
            return "env " + std::to_string(id) + " pins " +
                   std::to_string(env->inflight) + " sessions, " +
                   std::to_string(bound[id]) + " bound";
          }
        }
        return std::nullopt;
      });
  // 7. The Container DB mirrors engine state: records retire exactly
  //    when their environment does, and a live, ready container-backed
  //    environment has a booted CAC underneath.  Per event only the
  //    environments that changed are re-checked.
  invariants_.add_invariant(
      "db-consistency",
      [this]() -> std::optional<std::string> {
        for (const Env* env : watched_envs_) {
          if (auto detail = db_mismatch(*env)) return detail;
        }
        return std::nullopt;
      },
      [this]() -> std::optional<std::string> {
        for (const auto& [id, env] : envs_) {
          (void)id;
          if (auto detail = db_mismatch(*env)) return detail;
        }
        return std::nullopt;
      });
  // 12. Lifecycle-state conservation: the ledger tracks every
  //     environment the engine ever provisioned, no illegal transition
  //     was ever attempted, and the ledger state matches what the
  //     engine's flags imply for each environment (docs/ELASTIC.md).
  const auto lifecycle_totals = [this]() -> std::optional<std::string> {
    if (const std::string& err = lifecycle_.first_error(); !err.empty()) {
      return "lifecycle error: " + err;
    }
    if (lifecycle_.tracked_count() != envs_.size()) {
      return "lifecycle tracks " +
             std::to_string(lifecycle_.tracked_count()) +
             " envs, engine has " + std::to_string(envs_.size());
    }
    return std::nullopt;
  };
  invariants_.add_invariant(
      "lifecycle-state",
      [this, lifecycle_totals]() -> std::optional<std::string> {
        if (auto detail = lifecycle_totals()) return detail;
        for (const Env* env : watched_envs_) {
          if (auto detail = lifecycle_mismatch(*env)) return detail;
        }
        return std::nullopt;
      },
      [this, lifecycle_totals]() -> std::optional<std::string> {
        if (auto detail = lifecycle_totals()) return detail;
        for (const auto& [id, env] : envs_) {
          (void)id;
          if (auto detail = lifecycle_mismatch(*env)) return detail;
        }
        return std::nullopt;
      });
  // 13. The elastic memory budget is a hard ceiling on the warm pool:
  //     committed pool memory (booting + warm) never exceeds it.
  const auto within_budget =
      [this](std::uint64_t committed) -> std::optional<std::string> {
    if (pool_controller_ == nullptr) return std::nullopt;
    const std::uint64_t budget =
        pool_controller_->config().memory_budget_bytes;
    if (budget == 0 || committed <= budget) return std::nullopt;
    return "warm pool commits " + std::to_string(committed) +
           " bytes, budget is " + std::to_string(budget);
  };
  invariants_.add_invariant(
      "elastic-memory-budget",
      [this, within_budget]() { return within_budget(pool_committed_bytes_); },
      [this, within_budget]() -> std::optional<std::string> {
        // The scan also holds the claimable index to the same predicate:
        // a stale entry would hand dispatch a drained or retired env.
        const auto stale = [](std::uint32_t id) {
          return "claimable index lists env " + std::to_string(id) +
                 ", which is not claimable";
        };
        std::uint64_t committed = 0;
        auto indexed = claimable_.begin();
        for (const auto& [id, env] : envs_) {
          if (!env->pool || env->retired || env->draining) continue;
          committed += env->memory_bytes;
          if (indexed != claimable_.end() && indexed->first < id) {
            return stale(indexed->first);
          }
          if (indexed == claimable_.end() || indexed->first != id ||
              indexed->second != env.get()) {
            return "claimable env " + std::to_string(id) +
                   " is missing from the claimable index";
          }
          ++indexed;
        }
        if (indexed != claimable_.end()) return stale(indexed->first);
        return within_budget(committed);
      });
  // 14. A blocked tenant consumes zero container time after block onset:
  //     the on_block sweep leaves no live session of a tenant inside its
  //     block window (docs/RAC.md).
  invariants_.add_invariant(
      "rac-blocked-isolation",
      [this]() -> std::optional<std::string> {
        const auto& access = server_->access();
        if (access.blocked_count() == 0) return std::nullopt;
        const sim::SimTime now = server_->simulator().now();
        for (const auto& [tenant, live] : live_by_tenant_) {
          if (live > 0 && access.blocked_at(tenant, now)) {
            return "blocked tenant " + tenant + " has " +
                   std::to_string(live) + " live sessions";
          }
        }
        return std::nullopt;
      },
      [this]() -> std::optional<std::string> {
        const sim::SimTime now = server_->simulator().now();
        for (const auto& s : live_sessions_) {
          if (s->done) continue;
          if (server_->access().blocked_at(s->tenant, now)) {
            return "request " + std::to_string(s->request.sequence) +
                   " of blocked tenant " + s->tenant + " still live";
          }
        }
        return std::nullopt;
      });
  if (admission_ == nullptr) return;
  // 8. The class queues never exceed their capacity, and the scheduler's
  //    depth matches the sessions the platform is tracking as queued.
  const auto queue_bound =
      [this](std::size_t queued) -> std::optional<std::string> {
    if (queued != admission_->queue_depth()) {
      return "scheduler holds " + std::to_string(admission_->queue_depth()) +
             " queued, platform tracks " + std::to_string(queued);
    }
    const qos::QosScheduler& scheduler = admission_->scheduler();
    for (const qos::PriorityClass klass : qos::kAllClasses) {
      if (scheduler.depth(klass) > scheduler.capacity(klass)) {
        return std::string(qos::to_string(klass)) + " lane holds " +
               std::to_string(scheduler.depth(klass)) +
               " sessions, capacity " +
               std::to_string(scheduler.capacity(klass));
      }
    }
    return std::nullopt;
  };
  invariants_.add_invariant(
      "admission-queue-bound",
      [this, queue_bound]() { return queue_bound(queued_sessions_.size()); },
      [this, queue_bound]() {
        std::uint32_t queued = 0;
        for (const auto& [sequence, s] : queued_sessions_) {
          (void)sequence;
          if (!s->done && s->queued) ++queued;
        }
        return queue_bound(queued);
      });
  // 9. In-service accounting: the controller's slots equal the admitted
  //    live sessions, and never exceed the configured ceiling.
  const auto in_service =
      [this](std::uint32_t admitted) -> std::optional<std::string> {
    if (admitted != admission_->in_service()) {
      return "controller ledger says " +
             std::to_string(admission_->in_service()) + " in service, " +
             std::to_string(admitted) + " sessions hold slots";
    }
    if (admitted > admission_->max_in_service()) {
      return std::to_string(admitted) +
             " in-service sessions exceed the limit of " +
             std::to_string(admission_->max_in_service());
    }
    return std::nullopt;
  };
  invariants_.add_invariant(
      "admission-in-service",
      [this, in_service]() { return in_service(admitted_sessions_); },
      [this, in_service]() {
        std::uint32_t admitted = 0;
        for (const auto& s : live_sessions_) {
          if (!s->done && s->admitted) ++admitted;
        }
        return in_service(admitted);
      });
  // 10. DRR bookkeeping conserves quanta: per tenant per lane,
  //     granted == served + live deficit + forfeited (docs/QOS.md).
  invariants_.add_invariant(
      "qos-drr-conservation", [this]() -> std::optional<std::string> {
        return admission_->scheduler().check_conservation();
      });
  // 11. Anti-starvation promotion is bounded: a run of lower-class pops
  //     while a higher lane waits never exceeds the configured burst.
  invariants_.add_invariant(
      "qos-priority-burst", [this]() -> std::optional<std::string> {
        const qos::QosScheduler& scheduler = admission_->scheduler();
        const std::uint32_t burst =
            std::max(1u, scheduler.config().starvation_burst);
        if (scheduler.max_lower_run() <= burst) return std::nullopt;
        return "lower-class run of " +
               std::to_string(scheduler.max_lower_run()) +
               " exceeds the starvation burst of " + std::to_string(burst);
      });
}

// ---------------------------------------------------------------------

double Platform::memory_time_byte_seconds() const {
  const sim::SimTime now =
      server_ ? static_cast<const CloudServer&>(*server_).simulator().now()
              : 0;
  double sum = 0;
  for (const auto& [id, env] : envs_) {
    (void)id;
    if (env->memory_bytes == 0) continue;
    const sim::SimTime end =
        env->commit_end >= 0 ? env->commit_end : now;
    sum += static_cast<double>(env->memory_bytes) *
           sim::to_seconds(end - env->commit_start);
  }
  return sum;
}

ProvisionStats Platform::measure_provision() {
  assert(envs_.empty() && "measure_provision needs a fresh platform");
  config_.env_idle_timeout = 0;  // a probe environment is never reclaimed
  sim::Simulator& simulator = server_->simulator();
  Env& env = provision_env("probe", simulator.now());
  simulator.run();
  assert(env.ready);

  ProvisionStats stats;
  stats.setup_time = env.ready_at - env.provision_start;
  const Calibration& cal = server_->calibration();
  if (env.is_vm) {
    stats.memory_configured = cal.vm_memory;
    stats.memory_usage =
        android::device_userspace_boot(android::OsProfile::kStock)
            .boot_memory;
  } else {
    stats.memory_configured = config_.customized_os
                                  ? cal.cac_opt_memory
                                  : cal.cac_plain_memory;
    stats.memory_usage = env.cac->boot_memory();
  }
  stats.disk_bytes = env.disk_bytes;
  stats.shared_disk_bytes = config_.shared_resource_layer
                                ? server_->shared_layer().shared_bytes()
                                : 0;
  return stats;
}

}  // namespace rattrap::core
