// Worker sessions and the bounded device pool behind the serving layer.
//
// Nothing below the serve layer is thread-safe by design — vgpu::Device
// keeps plain session counters, FaultInjector is a seeded RNG stream, and
// PatternExecutor/sysml::Runtime mutate their owner's state freely. The
// pool therefore gives each worker thread a WorkerSession that OWNS a
// private Device, fault injector, and PatternExecutor; nothing below the
// serve layer is ever shared across threads. What IS shared — the breaker
// board, the admission queue, the metrics registry — is explicitly
// thread-safe.
//
// The pool models a bounded aggregate device memory: options name the total
// modeled bytes across all virtual devices, and each session is budgeted an
// equal slice. Admission control rejects (kOverCapacity) any request whose
// modeled working set cannot fit a single session's slice.
#pragma once

#include <memory>
#include <vector>

#include "common/resilience.h"
#include "common/types.h"
#include "kernels/op_registry.h"
#include "patterns/executor.h"
#include "serve/circuit_breaker.h"
#include "serve/device_health.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml::serve {

/// Pool- and policy-level configuration for a Server.
struct ServeOptions {
  int workers = 4;
  usize queue_capacity = 32;
  /// Aggregate modeled device memory across the pool; each worker session
  /// is budgeted pool_memory_bytes / workers.
  usize pool_memory_bytes = usize{4} << 30;
  /// Per-dispatch fault handling (attempts, backoff, retry budget) applied
  /// to every request; a request deadline further clamps the budget.
  RetryPolicy retry;
  BreakerConfig breaker;
  /// Fault schedule armed on every worker at start (worker w reseeds with
  /// seed + w so streams differ); all-zero rates = clean devices.
  vgpu::FaultConfig faults;
  /// Applied to requests submitted with deadline_ms == 0 (0 = no deadline).
  double default_deadline_ms = 0.0;
  /// ABFT verification coverage per scheduling class (kernels/abft.h) —
  /// interactive traffic can afford full checks, batch usually runs spot
  /// or off. Defaults keep verification out of existing deployments.
  kernels::VerifyPolicy verify_interactive = kernels::VerifyPolicy::kOff;
  kernels::VerifyPolicy verify_normal = kernels::VerifyPolicy::kOff;
  kernels::VerifyPolicy verify_batch = kernels::VerifyPolicy::kOff;
  /// Device quarantine on accumulated confirmed silent corruptions.
  QuarantineConfig quarantine;
  /// Failed (tier-exhausted) requests with deadline headroom are pushed
  /// back into the queue for another worker this many times before the
  /// failure is delivered (0 disables re-admission).
  int max_readmissions = 1;
  /// Per-request span trees (serve/request_trace.h): every outcome carries
  /// a sealed tree whose root duration equals the reported modeled latency.
  /// A pure observer — modeled numbers are bit-identical either way — but
  /// it allocates per request, so it stays opt-in.
  bool request_tracing = false;
  /// Flight recorder (serve/flight_recorder.h): bounded ring of recent
  /// request summaries, frozen into incident bundles when an anomaly fires
  /// (deadline miss, breaker open, quarantine, SDC, tier-exhausted
  /// failure). Off by default; the ring/incident caps bound the memory.
  bool flight_recorder = false;
  usize flight_recorder_capacity = 128;
  usize flight_recorder_max_incidents = 8;
};

/// One worker thread's private execution stack. Only its owning thread may
/// touch it after start() (construction happens before threads exist).
class WorkerSession {
 public:
  WorkerSession(int id, const ServeOptions& opts, usize memory_bytes);

  int id() const { return id_; }
  usize memory_bytes() const { return memory_bytes_; }
  vgpu::Device& device() { return device_; }
  patterns::PatternExecutor& executor() { return executor_; }

  /// Swaps this session's fault schedule (worker thread only, between
  /// requests). The seed is offset by the worker id so the pool's injector
  /// streams stay distinct but the storm as a whole replays from one seed.
  void apply_faults(vgpu::FaultConfig cfg);

  const vgpu::FaultLog* fault_log() const {
    return injector_ ? &injector_->log() : nullptr;
  }

 private:
  int id_;
  usize memory_bytes_;
  vgpu::Device device_;
  std::unique_ptr<vgpu::FaultInjector> injector_;
  patterns::PatternExecutor executor_;
};

/// Fixed-size collection of worker sessions with an aggregate memory bound.
class DevicePool {
 public:
  explicit DevicePool(const ServeOptions& opts);

  int workers() const { return static_cast<int>(sessions_.size()); }
  usize session_memory_bytes() const { return session_memory_bytes_; }
  WorkerSession& session(int worker) { return *sessions_[(usize)worker]; }
  const WorkerSession& session(int worker) const {
    return *sessions_[(usize)worker];
  }

 private:
  usize session_memory_bytes_;
  std::vector<std::unique_ptr<WorkerSession>> sessions_;
};

}  // namespace fusedml::serve
