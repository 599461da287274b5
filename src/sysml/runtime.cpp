#include "sysml/runtime.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <type_traits>

#include "common/cli.h"
#include "common/error.h"
#include "common/log.h"
#include "kernels/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusedml::sysml {

PlannerOptions planner_options_from_cli(Cli& cli) {
  PlannerOptions po;
  po.candidate_budget = static_cast<int>(cli.get_int(
      "planner-budget", po.candidate_budget,
      "exact overlap resolution up to this many candidates"));
  po.min_benefit_ms = cli.get_double(
      "planner-min-benefit", po.min_benefit_ms,
      "modeled ms a candidate must save to be selected");
  po.enable_pattern_fusion = cli.get_bool(
      "planner-eq1", po.enable_pattern_fusion, "Equation-1 template family");
  po.enable_ewise_fusion = cli.get_bool(
      "planner-ewise", po.enable_ewise_fusion, "elementwise-chain family");
  po.enable_row_fusion = cli.get_bool(
      "planner-row", po.enable_row_fusion, "row-template family");
  po.enable_sddmm_fusion = cli.get_bool(
      "planner-sddmm", po.enable_sddmm_fusion, "sddmm template family");
  return po;
}

Runtime::Runtime(vgpu::Device& dev, RuntimeOptions opts)
    : dev_(dev),
      opts_(opts),
      mm_(dev, opts.device_capacity),
      registry_(dev, 8) {}

TensorId Runtime::store(Value v, usize bytes, std::string name) {
  const TensorId id = next_id_++;
  values_.emplace(id, std::move(v));
  native_[id] = false;
  mm_.register_tensor(id, bytes, std::move(name));
  return id;
}

TensorId Runtime::add_sparse(la::CsrMatrix X, std::string name) {
  const usize bytes = X.bytes();
  return store(Value{std::move(X)}, bytes, std::move(name));
}

TensorId Runtime::add_dense(la::DenseMatrix X, std::string name) {
  const usize bytes = X.bytes();
  return store(Value{std::move(X)}, bytes, std::move(name));
}

TensorId Runtime::add_vector(std::vector<real> v, std::string name) {
  const usize bytes = v.size() * sizeof(real);
  return store(Value{std::move(v)}, bytes, std::move(name));
}

TensorId Runtime::new_vector(usize n, std::string name) {
  return add_vector(std::vector<real>(n, real{0}), std::move(name));
}

Runtime::Value& Runtime::value(TensorId id) {
  const auto it = values_.find(id);
  FUSEDML_CHECK(it != values_.end(), "unknown tensor id");
  return it->second;
}

std::vector<real>& Runtime::vec(TensorId id) {
  auto* v = std::get_if<std::vector<real>>(&value(id));
  FUSEDML_CHECK(v != nullptr, "tensor is not a vector");
  return *v;
}

usize Runtime::tensor_bytes(TensorId id) {
  const Value& v = value(id);
  if (const auto* s = std::get_if<la::CsrMatrix>(&v)) return s->bytes();
  if (const auto* d = std::get_if<la::DenseMatrix>(&v)) return d->bytes();
  return std::get<std::vector<real>>(v).size() * sizeof(real);
}

template <typename F>
auto Runtime::with_matrix(TensorId id, const char* label, F&& f) {
  using R = std::invoke_result_t<F&, const la::CsrMatrix&>;
  return std::visit(
      [&](const auto& m) -> R {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     std::vector<real>>) {
          throw Error(std::string(label) + " needs a matrix");
        } else {
          return f(m);
        }
      },
      value(id));
}

TensorInfo Runtime::tensor_info(TensorId id) {
  TensorInfo info;
  const Value& v = value(id);
  info.bytes = tensor_bytes(id);
  if (const auto* s = std::get_if<la::CsrMatrix>(&v)) {
    info.is_matrix = true;
    info.is_sparse = true;
    info.rows = s->rows();
    info.cols = s->cols();
    info.nnz = static_cast<std::uint64_t>(s->nnz());
  } else if (const auto* d = std::get_if<la::DenseMatrix>(&v)) {
    info.is_matrix = true;
    info.rows = d->rows();
    info.cols = d->cols();
  } else {
    info.rows =
        static_cast<index_t>(std::get<std::vector<real>>(v).size());
  }
  return info;
}

void Runtime::stage_on_device(TensorId id) {
  if (!native_[id]) {
    // First device contact: pay the JNI representation change + heap copy.
    const Value& v = value(id);
    JniCharge charge;
    if (const auto* s = std::get_if<la::CsrMatrix>(&v)) {
      charge = jni_.sparse_to_native(*s);
    } else if (const auto* d = std::get_if<la::DenseMatrix>(&v)) {
      charge = jni_.dense_to_native(*d);
    } else {
      charge = jni_.vector_to_native(std::get<std::vector<real>>(v).size());
    }
    stats_.jni_ms += charge.total_ms();
    if (obs::recorder().enabled()) {
      obs::TraceEvent ev;
      ev.name = "jni_convert";
      ev.cat = "jni";
      ev.track = obs::Track::kPcie;
      ev.dur_ms = charge.total_ms();
      ev.ts_ms = obs::recorder().advance_ms(charge.total_ms());
      obs::recorder().record(std::move(ev));
    }
    if (obs::metrics().enabled()) {
      obs::metrics().counter("runtime.jni_conversions").add();
      obs::metrics().gauge("runtime.jni_ms").add(charge.total_ms());
    }
    native_[id] = true;
  }
  stats_.transfer_ms += mm_.ensure_on_device(id);
}

void Runtime::sync_to_host(TensorId id) {
  stats_.transfer_ms += mm_.ensure_on_host(id);
}

bool Runtime::choose_gpu(usize bytes_touched,
                         std::span<const TensorId> inputs) {
  if (!opts_.enable_gpu) return false;
  // Streaming heuristics: effective device bandwidth (GB/s == bytes/ns) plus
  // launch overhead, against the host's memory bandwidth.
  const double bytes = static_cast<double>(bytes_touched);
  double gpu_ms =
      (bytes / (dev_.spec().mem_bandwidth_gbs * 0.8) / 1e6 + 0.005) *
      opts_.gpu_cost_bias;
  double cpu_ms = bytes / (cpu().threads() > 1 ? 21.8 : 8.0) / 1e6 + 0.002;
  for (TensorId id : inputs) {
    if (id == 0) continue;
    // Over-capacity tensors can never become resident; only op_pattern has
    // a streaming route, every other op runs on the host.
    if (mm_.needs_streaming(id)) return false;
    const usize b = tensor_bytes(id);
    if (!mm_.on_device(id) ||
        mm_.residency(id) == Residency::kHostDirty) {
      gpu_ms += static_cast<double>(b) / dev_.spec().pcie_bandwidth_gbs /
                1e6 / std::max(1.0, opts_.transfer_amortization);
    }
    if (mm_.on_device(id) && mm_.residency(id) == Residency::kDeviceDirty) {
      cpu_ms += static_cast<double>(b) / dev_.spec().pcie_bandwidth_gbs / 1e6;
    }
  }
  FUSEDML_LOG_DEBUG << "scheduler: " << bytes_touched << "B op -> "
                    << (gpu_ms < cpu_ms ? "GPU" : "CPU") << " (est gpu="
                    << gpu_ms << "ms cpu=" << cpu_ms << "ms)";
  return gpu_ms < cpu_ms;
}

template <typename Finish>
auto Runtime::dispatch(const std::string& label, usize bytes_touched,
                       std::span<const TensorId> inputs, bool pattern_class,
                       const Attempt& attempt, Finish&& finish,
                       TensorId in_place) {
  obs::TraceSpan span("op:" + label, "op", obs::Track::kOps);
  const bool gpu = choose_gpu(bytes_touched, inputs);
  for (TensorId id : inputs) {
    if (id == 0) continue;
    if (gpu) {
      stage_on_device(id);
    } else {
      sync_to_host(id);
    }
  }
  RetryPolicy policy = retry_;
  if (deadline_ms_ > 0.0) {
    const double spent_ms = stats_.total_ms();
    if (spent_ms >= deadline_ms_) {
      throw DeadlineError(
          "script modeled deadline exceeded before op dispatch (" +
          std::to_string(spent_ms) + " of " + std::to_string(deadline_ms_) +
          " ms spent)");
    }
    // A fault storm cannot back off past the deadline inside one op.
    policy = retry_.clamped_to(deadline_ms_ - spent_ms);
  }
  kernels::KernelOutcome o = registry_.execute_resilient(
      gpu ? kernels::Backend::kFused : kernels::Backend::kCpu, policy,
      attempt,
      in_place != 0 ? std::span<real>(vec(in_place)) : std::span<real>{},
      &resilience_);
  book(o, label, pattern_class);
  return finish(o, o.backend_used != kernels::Backend::kCpu);
}

auto Runtime::emit_as(std::string name) {
  return [this, name = std::move(name)](kernels::KernelOutcome& o,
                                        bool on_gpu) {
    return emit(std::move(o.value), on_gpu, name);
  };
}

void Runtime::mark_written(TensorId id, bool on_gpu) {
  if (on_gpu) {
    // The host copy was updated functionally; the device is authoritative.
    mm_.mark_device_dirty(id);
  } else if (mm_.on_device(id)) {
    mm_.mark_host_dirty(id);
  }
}

void Runtime::book(const kernels::KernelOutcome& outcome,
                   const std::string& op, bool pattern_class) {
  const bool on_gpu = outcome.backend_used != kernels::Backend::kCpu;
  // Fault-recovery overhead (wasted attempts + retry backoff) is carried
  // inside outcome.modeled_ms; book it separately so the success-path
  // metrics (the Table-6 speedup inputs) match a clean run of the same
  // script, fault injection or not.
  const double overhead = outcome.resilience.overhead_ms();
  const double clean_ms = outcome.modeled_ms - overhead;
  stats_.resilience_overhead_ms += overhead;
  if (on_gpu) {
    stats_.gpu_kernel_ms += clean_ms;
    stats_.kernel_launches += outcome.launches;
    ++stats_.gpu_ops;
    if (pattern_class) stats_.pattern_gpu_ms += clean_ms;
    // ABFT verification sub-bucket (already inside launches/clean_ms).
    stats_.verify_launches += outcome.verify_launches;
    stats_.verify_ms += outcome.verify_ms;
  } else {
    stats_.cpu_op_ms += clean_ms;
    ++stats_.cpu_ops;
  }
  if (obs::metrics().enabled()) {
    auto& m = obs::metrics();
    m.counter(on_gpu ? "runtime.gpu_ops" : "runtime.cpu_ops").add();
    if (overhead > 0.0) {
      m.gauge("runtime.resilience_overhead_ms").add(overhead);
    }
  }
  trace_.push_back({op, on_gpu, outcome.modeled_ms});
}

void Runtime::note_plan_prepare(double host_ms, bool cache_hit) {
  stats_.plan_host_ms += host_ms;
  if (obs::metrics().enabled()) {
    auto& m = obs::metrics();
    m.counter(cache_hit ? "runtime.plan_cache_hits" : "runtime.plans_built")
        .add();
    m.gauge("runtime.plan_host_ms").add(host_ms);
  }
  if (obs::recorder().enabled()) {
    // Instant marker: planning is host work, so it gets zero modeled
    // duration — the host cost rides along as an arg.
    obs::TraceEvent ev;
    ev.name = cache_hit ? "plan:cache_hit" : "plan:build";
    ev.cat = "plan";
    ev.track = obs::Track::kServe;
    ev.ts_ms = obs::recorder().now_ms();
    ev.num_args.emplace_back("host_ms", host_ms);
    obs::recorder().record(std::move(ev));
  }
}

TensorId Runtime::emit(std::vector<real> w, bool on_gpu, std::string name) {
  const TensorId out = add_vector(std::move(w), std::move(name));
  if (on_gpu) {
    native_[out] = true;  // born in native/device space
    stats_.transfer_ms += mm_.allocate_on_device(out);
  }
  return out;
}

template <typename Matrix>
TensorId Runtime::stream_pattern(real alpha, const Matrix& X,
                                 std::span<const real> v,
                                 std::span<const real> y, real beta,
                                 std::span<const real> z) {
  obs::TraceSpan span("op:pattern", "op", obs::Track::kOps);
  mm_.note_streaming_fallback();
  kernels::StreamingResult sr;
  if constexpr (std::is_same_v<Matrix, la::CsrMatrix>) {
    kernels::StreamingOptions sopts;
    sopts.device_budget_bytes = mm_.capacity();
    sr = kernels::streaming_pattern_sparse(dev_, alpha, X, v, y, beta, z,
                                           sopts);
  } else {
    kernels::DenseStreamingOptions sopts;
    sopts.device_budget_bytes = mm_.capacity();
    sr = kernels::streaming_pattern_dense(dev_, alpha, X, v, y, beta, z,
                                          sopts);
  }
  // Streaming launches bypass the registry dispatch bodies — consume the
  // device's silent-corruption handshake here, and (when the verify
  // policy samples this op) prove the merged result before booking it.
  registry_.consume_streamed_corruption(sr.op.value);
  if (registry_.verifier().arm()) {
    try {
      const auto charge = registry_.verifier().check_pattern(
          sr.op.value, alpha, X, v, y, beta, z);
      sr.kernel_ms += charge.modeled_ms;
      sr.op.launches += charge.launches;
      stats_.verify_launches += charge.launches;
      stats_.verify_ms += charge.modeled_ms;
      resilience_.verify_launches += charge.launches;
      resilience_.verify_ms += charge.modeled_ms;
    } catch (const SilentCorruptionError& e) {
      // Tainted panel: the whole streamed pipeline is wasted. Recompute
      // on the CPU — the terminal tier silent corruption cannot reach.
      ++resilience_.faults_seen;
      ++resilience_.sdc_detected;
      ++resilience_.recoveries;
      const double wasted = sr.kernel_ms + e.penalty_ms();
      resilience_.wasted_ms += wasted;
      stats_.resilience_overhead_ms += wasted;
      stats_.transfer_ms += sr.transfer_ms;
      if (obs::metrics().enabled()) {
        obs::metrics().counter("dispatch.sdc_detected").add();
      }
      auto op = cpu().pattern(alpha, X, v, y, beta, z);
      stats_.cpu_op_ms += op.modeled_ms;
      ++stats_.cpu_ops;
      trace_.push_back(
          {"pattern (streamed, sdc recompute)", false, op.modeled_ms});
      return add_vector(std::move(op.value), "pattern_out");
    }
  }
  stats_.gpu_kernel_ms += sr.kernel_ms;
  stats_.pattern_gpu_ms += sr.kernel_ms;
  stats_.transfer_ms += sr.transfer_ms;
  stats_.kernel_launches += sr.op.launches;
  ++stats_.gpu_ops;
  trace_.push_back({"pattern (streamed)", true, sr.pipeline_ms});
  stats_.pattern_cpu_equiv_ms += cpu().pattern_ms(X, !v.empty(), !z.empty());
  // The streamed result lives on the host (partials were merged there).
  return add_vector(std::move(sr.op.value), "pattern_out");
}

TensorId Runtime::op_pattern(real alpha, TensorId Xid, TensorId vid,
                             TensorId yid, real beta, TensorId zid) {
  std::span<const real> v =
      vid == 0 ? std::span<const real>{} : std::span<const real>(vec(vid));
  std::span<const real> z =
      zid == 0 ? std::span<const real>{} : std::span<const real>(vec(zid));
  const std::vector<real>& y = vec(yid);
  return with_matrix(Xid, "pattern", [&](const auto& X) {
    if (opts_.enable_gpu && mm_.needs_streaming(Xid)) {
      // X does not fit on the device even alone: instead of failing (or
      // forcing the CPU), stream it through the device panel by panel. The
      // result is bit-equivalent to the in-core fused kernel.
      return stream_pattern(alpha, X, v, y, beta, z);
    }
    return dispatch(
        "pattern", 2 * X.bytes(), std::array{Xid, vid, yid, zid}, true,
        [&](kernels::Backend b) {
          return registry_.pattern(b, alpha, X, v, y, beta, z);
        },
        [&](kernels::KernelOutcome& o, bool on_gpu) {
          // What the same op would have cost on the CPU (Table 6 row 2).
          if (on_gpu) {
            stats_.pattern_cpu_equiv_ms +=
                cpu().pattern_ms(X, !v.empty(), !z.empty());
          }
          return emit(std::move(o.value), on_gpu, "pattern_out");
        });
  });
}

TensorId Runtime::op_transposed_product(TensorId Xid, TensorId yid,
                                        real alpha) {
  const std::vector<real>& y = vec(yid);
  return with_matrix(Xid, "transposed_product", [&](const auto& X) {
    return dispatch(
        "transposed_product", X.bytes(), std::array{Xid, yid}, true,
        [&](kernels::Backend b) {
          return registry_.transposed_product(b, X, y, alpha);
        },
        [&](kernels::KernelOutcome& o, bool on_gpu) {
          if (on_gpu) {
            stats_.pattern_cpu_equiv_ms += cpu().transposed_product_ms(X);
          }
          return emit(std::move(o.value), on_gpu, "xty_out");
        });
  });
}

TensorId Runtime::op_product(TensorId Xid, TensorId yid) {
  const std::vector<real>& y = vec(yid);
  return with_matrix(Xid, "product", [&](const auto& X) {
    return dispatch(
        "product", X.bytes(), std::array{Xid, yid}, false,
        [&](kernels::Backend b) { return registry_.product(b, X, y); },
        emit_as("product_out"));
  });
}

void Runtime::op_axpy(real alpha, TensorId xid, TensorId yid) {
  const std::vector<real>& x = vec(xid);
  std::vector<real>& y = vec(yid);
  dispatch(
      "axpy", 3 * x.size() * sizeof(real), std::array{xid, yid}, false,
      [&](kernels::Backend b) { return registry_.axpy(b, alpha, x, y); },
      [&](kernels::KernelOutcome&, bool on_gpu) { mark_written(yid, on_gpu); },
      yid);
}

TensorId Runtime::op_ewise_mul(TensorId xid, TensorId yid) {
  const std::vector<real>& x = vec(xid);
  const std::vector<real>& y = vec(yid);
  return dispatch(
      "ewise_mul", 3 * x.size() * sizeof(real), std::array{xid, yid}, false,
      [&](kernels::Backend b) { return registry_.ewise_mul(b, x, y); },
      emit_as("ewise_out"));
}

TensorId Runtime::op_map(TensorId xid, real (*f)(real),
                         const std::string& name) {
  const std::vector<real>& x = vec(xid);
  return dispatch(
      name, 2 * x.size() * sizeof(real), std::array{xid}, false,
      [&](kernels::Backend b) { return registry_.map(b, x, f, name); },
      emit_as(name + "_out"));
}

TensorId Runtime::op_fused_ewise(const kernels::EwiseProgram& program,
                                 std::span<const TensorId> inputs,
                                 const std::string& name) {
  FUSEDML_CHECK(inputs.size() == static_cast<usize>(program.num_inputs),
                "op_fused_ewise: input-count mismatch");
  std::vector<std::span<const real>> views;
  views.reserve(inputs.size());
  usize n = 0;
  for (TensorId id : inputs) {
    const std::vector<real>& x = vec(id);
    n = x.size();
    views.emplace_back(x);
  }
  return dispatch(
      name, (inputs.size() + 1) * n * sizeof(real), inputs, false,
      [&](kernels::Backend b) {
        return registry_.fused_ewise(b, program, views);
      },
      emit_as(name + "_out"));
}

TensorId Runtime::op_outer_map(TensorId uid, TensorId vid, real (*f)(real),
                               const std::string& name) {
  const std::vector<real>& u = vec(uid);
  const std::vector<real>& v = vec(vid);
  return dispatch(
      "outer_map", 2 * u.size() * v.size() * sizeof(real),
      std::array{uid, vid}, false,
      [&](kernels::Backend b) { return registry_.outer_map(b, u, v, f, name); },
      emit_as("outer_map_out"));
}

TensorId Runtime::op_sparse_mask(TensorId Xid, TensorId omid) {
  const std::vector<real>& om = vec(omid);
  return with_matrix(Xid, "sparse_mask", [&](const auto& X) {
    return dispatch(
        "sparse_mask", X.bytes() + om.size() * sizeof(real),
        std::array{Xid, omid}, false,
        [&](kernels::Backend b) { return registry_.sparse_mask(b, X, om); },
        emit_as("sparse_mask_out"));
  });
}

TensorId Runtime::op_masked_product(TensorId Xid, TensorId valsid,
                                    TensorId zid) {
  const std::vector<real>& vals = vec(valsid);
  const std::vector<real>& z = vec(zid);
  return with_matrix(Xid, "masked_product", [&](const auto& X) {
    return dispatch(
        "masked_product", X.bytes(), std::array{Xid, valsid, zid}, false,
        [&](kernels::Backend b) {
          return registry_.masked_product(b, X, vals, z);
        },
        emit_as("masked_product_out"));
  });
}

TensorId Runtime::op_fused_row(TensorId Xid, TensorId yid,
                               const kernels::EwiseProgram& program,
                               std::span<const TensorId> ext) {
  FUSEDML_CHECK(ext.size() + 1 == static_cast<usize>(program.num_inputs),
                "op_fused_row: external input count mismatch");
  const std::vector<real>& y = vec(yid);
  std::vector<std::span<const real>> views;
  std::vector<TensorId> inputs = {Xid, yid};
  views.reserve(ext.size());
  for (TensorId id : ext) {
    views.emplace_back(vec(id));
    inputs.push_back(id);
  }
  return with_matrix(Xid, "fused_row", [&](const auto& X) {
    return dispatch(
        "fused_row", X.bytes(), inputs, false,
        [&](kernels::Backend b) {
          return registry_.fused_row(b, X, y, program, views);
        },
        emit_as("fused_row_out"));
  });
}

TensorId Runtime::op_fused_sddmm(TensorId Xid, TensorId uid, TensorId vid,
                                 TensorId zid, real (*f)(real),
                                 const std::string& name) {
  const std::vector<real>& u = vec(uid);
  const std::vector<real>& v = vec(vid);
  const std::vector<real>& z = vec(zid);
  return with_matrix(Xid, "fused_sddmm", [&](const auto& X) {
    return dispatch(
        "fused_sddmm", X.bytes(), std::array{Xid, uid, vid, zid}, false,
        [&](kernels::Backend b) {
          return registry_.fused_sddmm(b, X, u, v, z, f, name);
        },
        emit_as("fused_sddmm_out"));
  });
}

real Runtime::op_dot(TensorId xid, TensorId yid) {
  const std::vector<real>& x = vec(xid);
  const std::vector<real>& y = vec(yid);
  return dispatch(
      "dot", 2 * x.size() * sizeof(real), std::array{xid, yid}, false,
      [&](kernels::Backend b) { return registry_.dot(b, x, y); },
      [](kernels::KernelOutcome& o, bool) { return o.value[0]; });
}

real Runtime::op_nrm2(TensorId xid) {
  const std::vector<real>& x = vec(xid);
  return dispatch(
      "nrm2", x.size() * sizeof(real), std::array{xid}, false,
      [&](kernels::Backend b) { return registry_.nrm2(b, x); },
      [](kernels::KernelOutcome& o, bool) { return o.value[0]; });
}

void Runtime::op_scal(real alpha, TensorId xid) {
  std::vector<real>& x = vec(xid);
  dispatch(
      "scal", 2 * x.size() * sizeof(real), std::array{xid}, false,
      [&](kernels::Backend b) { return registry_.scal(b, alpha, x); },
      [&](kernels::KernelOutcome&, bool on_gpu) { mark_written(xid, on_gpu); },
      xid);
}

std::span<const real> Runtime::read_vector(TensorId id) {
  sync_to_host(id);
  return vec(id);
}

void Runtime::write_vector(TensorId id, std::span<const real> values) {
  auto& x = vec(id);
  FUSEDML_CHECK(values.size() == x.size(),
                "write_vector: size mismatch with the registered tensor");
  x.assign(values.begin(), values.end());
  if (mm_.on_device(id)) mm_.mark_host_dirty(id);
}

std::string Runtime::explain() const {
  std::ostringstream os;
  const auto& po = planner_opts_;
  os << "planner options: pattern=" << (po.enable_pattern_fusion ? "on" : "off")
     << " ewise=" << (po.enable_ewise_fusion ? "on" : "off")
     << " row=" << (po.enable_row_fusion ? "on" : "off")
     << " sddmm=" << (po.enable_sddmm_fusion ? "on" : "off")
     << " budget=" << po.candidate_budget
     << " min_benefit=" << po.min_benefit_ms << " ms\n";
  if (!plan_explain_.empty()) {
    os << plan_explain_;
    if (plan_explain_.back() != '\n') os << '\n';
  }
  os << "execution: " << stats_.gpu_ops << " gpu op(s), "
     << stats_.kernel_launches << " kernel launch(es), " << stats_.cpu_ops
     << " cpu op(s)\n";
  for (const auto& entry : trace_) {
    os << "  " << (entry.on_gpu ? "[gpu] " : "[cpu] ") << entry.op << "  ("
       << entry.modeled_ms << " ms)\n";
  }
  return os.str();
}

}  // namespace fusedml::sysml
