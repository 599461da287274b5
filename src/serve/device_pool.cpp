#include "serve/device_pool.h"

#include "common/error.h"

namespace fusedml::serve {

WorkerSession::WorkerSession(int id, const ServeOptions& opts,
                             usize memory_bytes)
    : id_(id),
      memory_bytes_(memory_bytes),
      // Workers prefer the fused kernels and degrade from there; the CPU
      // tier keeps the executor's default 8-thread cost model.
      executor_(device_, kernels::Backend::kFused) {
  executor_.retry_policy() = opts.retry;
  apply_faults(opts.faults);
}

void WorkerSession::apply_faults(vgpu::FaultConfig cfg) {
  cfg.seed += static_cast<std::uint64_t>(id_);
  if (!cfg.armed()) {
    device_.set_fault_injector(nullptr);
    injector_.reset();
    return;
  }
  auto fresh = std::make_unique<vgpu::FaultInjector>(cfg);
  device_.set_fault_injector(fresh.get());
  injector_ = std::move(fresh);
}

DevicePool::DevicePool(const ServeOptions& opts) {
  FUSEDML_CHECK(opts.workers > 0, "pool needs at least one worker");
  session_memory_bytes_ =
      opts.pool_memory_bytes / static_cast<usize>(opts.workers);
  FUSEDML_CHECK(session_memory_bytes_ > 0, "pool memory too small to split");
  sessions_.reserve(static_cast<usize>(opts.workers));
  for (int w = 0; w < opts.workers; ++w) {
    sessions_.push_back(
        std::make_unique<WorkerSession>(w, opts, session_memory_bytes_));
  }
}

}  // namespace fusedml::serve
