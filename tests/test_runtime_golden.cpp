// Golden end-to-end fingerprints of sysml::Runtime. Every script of the
// generated library (9 algorithms x {CSR, dense} x 3 plan modes) runs on
// small seeded inputs, and everything the runtime books is rendered into one
// string per run: the weights (length + bit hash), every RuntimeStats,
// MemoryStats and ResilienceStats field (doubles as hexfloat), the full
// Runtime::trace() (length + hash of op, placement and modeled ms), the
// plan-vs-actual audit, and the spans the run recorded on the modeled
// timeline (length + hash of name, track, start and duration).
//
// Special runs pin the paths a clean run does not reach: the GPU disabled
// (the SystemML-CPU baseline), a device smaller than X (out-of-core
// streaming) or barely larger (evictions), a seeded fault storm under full
// ABFT verification (retries, fallbacks, silent-corruption recomputes,
// including the streamed one), and a modeled deadline that trips mid-script
// (the op index it trips at and everything booked up to it).
//
// Host wall time (plan_host_ms, span args) is not fingerprinted. On a
// mismatch the failure prints the new line in table form; an intended
// change to the runtime's accounting refreezes the table by pasting it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "la/convert.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "obs/trace.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

using ml::Algorithm;
using sysml::PlanMode;
using sysml::ScriptResult;

constexpr int kIterations = 3;

// --- Fingerprints -----------------------------------------------------------

std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

/// FNV-1a, fed byte by byte.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, usize n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (usize i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u64(std::uint64_t x) { bytes(&x, sizeof(x)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string weights_string(const std::vector<real>& w) {
  Fnv f;
  for (const real v : w) f.f64(v);
  return "n=" + std::to_string(w.size()) + " h=" + f.hex();
}

std::string resilience_string(const ResilienceStats& r) {
  return std::to_string(r.faults_seen) + "," + std::to_string(r.retries) +
         "," + std::to_string(r.fallbacks) + "," +
         std::to_string(r.fallbacks_to_baseline) + "," +
         std::to_string(r.fallbacks_to_cpu) + "," +
         std::to_string(r.breaker_skips) + "," +
         std::to_string(r.recoveries) + "," +
         std::to_string(r.sdc_detected) + "," + std::to_string(r.rollbacks) +
         "," + std::to_string(r.verify_launches) + "," +
         hexfloat(r.verify_ms) + "," + hexfloat(r.backoff_ms) + "," +
         hexfloat(r.wasted_ms);
}

std::string runtime_stats_string(const sysml::RuntimeStats& s) {
  // plan_host_ms is host wall time and deliberately left out.
  return hexfloat(s.gpu_kernel_ms) + "," + hexfloat(s.cpu_op_ms) + "," +
         hexfloat(s.jni_ms) + "," + hexfloat(s.transfer_ms) + "," +
         std::to_string(s.gpu_ops) + "," + std::to_string(s.cpu_ops) + "," +
         std::to_string(s.kernel_launches) + "," +
         hexfloat(s.pattern_gpu_ms) + "," + hexfloat(s.pattern_cpu_equiv_ms) +
         "," + hexfloat(s.resilience_overhead_ms) + "," +
         std::to_string(s.verify_launches) + "," + hexfloat(s.verify_ms);
}

std::string memory_stats_string(const sysml::MemoryStats& m) {
  return std::to_string(m.h2d_transfers) + "," +
         std::to_string(m.d2h_transfers) + "," + std::to_string(m.h2d_bytes) +
         "," + std::to_string(m.d2h_bytes) + "," +
         std::to_string(m.evictions) + "," +
         std::to_string(m.allocation_reuses) + "," +
         std::to_string(m.streaming_fallbacks) + "," +
         hexfloat(m.transfer_ms) + "," + std::to_string(m.peak_device_bytes) +
         " mres=" + resilience_string(m.resilience);
}

std::string trace_string(const sysml::Runtime& rt) {
  Fnv f;
  for (const auto& e : rt.trace()) {
    f.str(e.op);
    f.u64(e.on_gpu ? 1 : 0);
    f.f64(e.modeled_ms);
  }
  return "T=" + std::to_string(rt.trace().size()) + ":" + f.hex();
}

std::string audit_string(const obs::PlanAudit& a) {
  return std::to_string(a.has_prediction ? 1 : 0) + "," +
         std::to_string(a.predicted_launches_per_exec) + "," +
         hexfloat(a.predicted_ms_per_exec) + "," +
         std::to_string(a.predicted_launches_accum) + "," +
         hexfloat(a.predicted_ms_accum) + "," + std::to_string(a.executions) +
         "," + std::to_string(a.observed_launches) + "," +
         hexfloat(a.observed_ms);
}

/// Spans and leaf events recorded since the last clear(): names, tracks and
/// modeled start/duration, in sequence order. Args (which may carry host
/// wall time) are not hashed.
std::string spans_string() {
  EXPECT_EQ(obs::recorder().dropped(), 0u);
  const auto events = obs::recorder().snapshot();
  Fnv f;
  for (const auto& ev : events) {
    f.str(ev.name);
    f.u64(static_cast<std::uint64_t>(ev.track));
    f.f64(ev.ts_ms);
    f.f64(ev.dur_ms);
  }
  return "S=" + std::to_string(events.size()) + ":" + f.hex();
}

std::string fingerprint(const sysml::Runtime& rt, const std::vector<real>& w,
                        int iterations) {
  return weights_string(w) + " it=" + std::to_string(iterations) +
         " rs=" + runtime_stats_string(rt.stats()) +
         " ms=" + memory_stats_string(rt.memory_stats()) +
         " res=" + resilience_string(rt.resilience()) + " " +
         trace_string(rt) + " pa=" + audit_string(rt.plan_audit()) + " " +
         spans_string();
}

/// Compares `actual` with the frozen fingerprint of `name`.
void expect_golden(const std::map<std::string, std::string>& golden,
                   const std::string& name, const std::string& actual) {
  const auto it = golden.find(name);
  if (it == golden.end() || it->second != actual) {
    ADD_FAILURE() << "fingerprint drift for " << name << "\n    {\"" << name
                  << "\",\n     \"" << actual << "\"},";
  }
}

/// Enables the trace recorder for the duration of a test so span names and
/// modeled timestamps can be read back; clear() rewinds it between runs.
struct RecorderScope {
  RecorderScope() { obs::recorder().enable(); }
  ~RecorderScope() { obs::recorder().disable(); }
};

// --- Inputs -----------------------------------------------------------------

struct Data {
  explicit Data(index_t rows, double density)
      : X(la::uniform_sparse(rows, 40, density, 1401)),
        Xd(la::csr_to_dense(X)),
        y_reg(la::regression_labels(X, 1402, 0.1)),
        y_cls(la::classification_labels(X, 1403, 0.1)),
        y_count(y_reg.size()) {
    // Non-negative integer responses for the Poisson GLM.
    for (usize i = 0; i < y_count.size(); ++i) {
      y_count[i] = static_cast<real>(static_cast<int>(i * 7 % 5));
    }
  }

  la::CsrMatrix X;
  la::DenseMatrix Xd;
  std::vector<real> y_reg;
  std::vector<real> y_cls;
  std::vector<real> y_count;

  std::span<const real> labels(Algorithm a) const {
    switch (a) {
      case Algorithm::kLogregGd:
      case Algorithm::kSvm:
      case Algorithm::kMinibatchLogreg:
        return y_cls;
      case Algorithm::kGlm:
        return y_count;
      default:
        return y_reg;
    }
  }

  usize bytes(const ml::ScriptSpec& spec) const {
    return spec.dense ? Xd.bytes() : X.bytes();
  }

  ScriptResult run(const ml::ScriptSpec& spec, sysml::Runtime& rt) const {
    return spec.dense
               ? spec.run_dense(rt, Xd, labels(spec.algorithm), kIterations)
               : spec.run_sparse(rt, X, labels(spec.algorithm), kIterations);
  }
};

/// The inputs of most runs: small enough that the scheduler splits ops
/// between host and device.
const Data& small_data() {
  static const Data d(2000, 0.1);
  return d;
}

/// Inputs for out-of-core runs: the streaming pipeline needs a device
/// budget above 1 MiB plus the working vectors, so X must exceed that.
const Data& big_data() {
  static const Data d(20000, 0.2);
  return d;
}

/// What one run leaves behind: its fingerprint plus the books the coverage
/// checks read (each special run must actually reach its path).
struct RunResult {
  std::string fp;
  sysml::MemoryStats memory;
  ResilienceStats resilience;
  std::vector<sysml::Runtime::TraceEntry> trace;

  bool traced(const std::string& op) const {
    for (const auto& e : trace) {
      if (e.op == op) return true;
    }
    return false;
  }
};

/// Runs `spec` on a fresh runtime over `dev`; `setup` configures the runtime
/// before the run.
template <typename Setup>
RunResult run_spec(const ml::ScriptSpec& spec, vgpu::Device& dev,
                   sysml::RuntimeOptions opts, Setup&& setup,
                   const Data& d = small_data()) {
  obs::recorder().clear();
  sysml::Runtime rt(dev, opts);
  setup(rt);
  const auto r = d.run(spec, rt);
  return {fingerprint(rt, r.weights, r.iterations), rt.memory_stats(),
          rt.resilience(), rt.trace()};
}

RunResult run_spec(const ml::ScriptSpec& spec, vgpu::Device& dev,
                   sysml::RuntimeOptions opts = {}) {
  return run_spec(spec, dev, opts, [](sysml::Runtime&) {});
}

const ml::ScriptSpec& script(const std::string& name) {
  const ml::ScriptSpec* spec = ml::find_script(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

// --- Golden table -----------------------------------------------------------

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> g = {
      {"lr_cg/csr/unfused",
       "n=40 h=2f6c9b5334e721a9 it=3 rs=0x1.9732cee8d7066p-5,0x1.b1b1b1b1b1b1cp-5,0x1.d2799a1fd156ap-3,0x1.c944ed6fda836p-4,7,26,7,0x1.d6c514a15fd8p-6,0x1.6bf52081e1644p-5,0x0p+0,0,0x0p+0 ms=5,4,128548,1280,0,0,0,0x1.c944ed6fda836p-4,177188 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=33:5c702f97eb6a8395 pa=0,0,0x0p+0,0,0x0p+0,3,6,0x1.14c668006c084p-3 S=87:0b40393ad36a1b59"},
      {"lr_cg/csr/hardcoded-pass",
       "n=40 h=9cbccde203100401 it=3 rs=0x1.d3def7e90a025p-6,0x1.4d954357d2b41p-5,0x1.d2799a1fd156ap-3,0x1.c944ed6fda836p-4,4,20,4,0x1.d3def7e90a025p-6,0x1.342136ff8413cp-4,0x0p+0,0,0x0p+0 ms=5,4,128548,1280,0,0,0,0x1.c944ed6fda836p-4,129188 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:2284706234a7a642 pa=0,0,0x0p+0,0,0x0p+0,3,3,0x1.2553e1ff63f9p-4 S=66:d393685ae98311a2"},
      {"lr_cg/csr/planner",
       "n=40 h=9cbccde203100401 it=3 rs=0x1.d3def7e90a025p-6,0x1.4d954357d2b41p-5,0x1.d2799a1fd156ap-3,0x1.c944ed6fda836p-4,4,20,4,0x1.d3def7e90a025p-6,0x1.342136ff8413cp-4,0x0p+0,0,0x0p+0 ms=5,4,128548,1280,0,0,0,0x1.c944ed6fda836p-4,129188 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:2284706234a7a642 pa=1,1,0x1.6fb84644e760ep-8,3,0x1.13ca34b3ad88ap-6,3,3,0x1.2553e1ff63f9p-4 S=66:d393685ae98311a2"},
      {"lr_cg/dense/unfused",
       "n=40 h=d0f432afbe90a1e5 it=3 rs=0x1.16ecf32496ffdp-4,0x1.b1b1b1b1b1b1cp-5,0x1.a49ac63118ee6p-2,0x1.98ffcf110315ep-3,7,26,8,0x1.4ffc086b5021cp-5,0x1.07781bf2fd3aap-3,0x0p+0,0,0x0p+0 ms=5,4,656960,1280,0,0,0,0x1.98ffcf110315ep-3,705600 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=33:6cc6a13b253a5fcc pa=0,0,0x0p+0,0,0x0p+0,3,6,0x1.2c7731f09dedp-3 S=88:a11b229e65a93e3c"},
      {"lr_cg/dense/hardcoded-pass",
       "n=40 h=15ff130597164e49 it=3 rs=0x1.46a3b99447058p-3,0x1.4d954357d2b41p-5,0x1.a49ac63118ee6p-2,0x1.98ffcf110315ep-3,4,20,5,0x1.46a3b99447058p-3,0x1.bc5b136550d5fp-3,0x0p+0,0,0x0p+0 ms=5,4,656960,1280,0,0,0,0x1.98ffcf110315ep-3,657600 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:7af0416de29dec6a pa=0,0,0x0p+0,0,0x0p+0,3,3,0x1.90d8cfaef3e8p-3 S=67:85e3dbcb07e445d5"},
      {"lr_cg/dense/planner",
       "n=40 h=15ff130597164e49 it=3 rs=0x1.46a3b99447058p-3,0x1.4d954357d2b41p-5,0x1.a49ac63118ee6p-2,0x1.98ffcf110315ep-3,4,20,5,0x1.46a3b99447058p-3,0x1.bc5b136550d5fp-3,0x0p+0,0,0x0p+0 ms=5,4,656960,1280,0,0,0,0x1.98ffcf110315ep-3,657600 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:7af0416de29dec6a pa=1,1,0x1.fe16aa1edb45cp-8,3,0x1.7e90ff9724745p-6,3,3,0x1.90d8cfaef3e8p-3 S=67:85e3dbcb07e445d5"},
      {"logreg_gd/csr/unfused",
       "n=40 h=1838d7abc219c073 it=3 rs=0x1.6d52a21cae44dp-4,0x1.658e8446d6326p-6,0x1.d2799a1fd1569p-3,0x1.a0173e51bbfcp-4,15,10,15,0x1.6113cf7907e2p-6,0x1.10f7d861690b3p-5,0x0p+0,0,0x0p+0 ms=5,3,128548,960,0,0,0,0x1.a0173e51bbfcp-4,320868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=25:55c4db0c84ecc659 pa=0,0,0x0p+0,0,0x0p+0,3,15,0x1.b91ad2f6bf1b3p-2 S=78:18cf8701c02f8d23"},
      {"logreg_gd/csr/hardcoded-pass",
       "n=40 h=1838d7abc219c073 it=3 rs=0x1.6d52a21cae44dp-4,0x1.658e8446d6326p-6,0x1.d2799a1fd1569p-3,0x1.a0173e51bbfcp-4,15,10,15,0x1.6113cf7907e2p-6,0x1.10f7d861690b3p-5,0x0p+0,0,0x0p+0 ms=5,3,128548,960,0,0,0,0x1.a0173e51bbfcp-4,320868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=25:55c4db0c84ecc659 pa=0,0,0x0p+0,0,0x0p+0,3,15,0x1.b91ad2f6bf1b3p-2 S=78:18cf8701c02f8d23"},
      {"logreg_gd/csr/planner",
       "n=40 h=1838d7abc219c073 it=3 rs=0x1.5e0f146ff98d2p-5,0x1.01ce9b683501cp-6,0x1.d2799a1fd1569p-3,0x1.a0173e51bbfcp-4,6,7,6,0x1.6113cf7907e2p-6,0x1.10f7d861690b3p-5,0x0p+0,0,0x0p+0 ms=5,3,128548,960,0,0,0,0x1.a0173e51bbfcp-4,176868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:ba5deca8cb8a2852 pa=1,3,0x1.09284ba85d225p-6,9,0x1.8dbc717c8bb38p-5,3,6,0x1.834c0e6fa8a8ap-2 S=45:caf2f731883fedb9"},
      {"logreg_gd/dense/unfused",
       "n=40 h=06445dcedcdacb4f it=3 rs=0x1.9cb435fd120eep-4,0x1.658e8446d6326p-6,0x1.a49ac63118ee6p-2,0x1.8468f781f3d23p-3,15,10,15,0x1.ba7eec6f29838p-6,0x1.8b3429ec7bd7fp-4,0x0p+0,0,0x0p+0 ms=5,3,656960,960,0,0,0,0x1.8468f781f3d23p-3,849280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=25:9f77c0195a10dfee pa=0,0,0x0p+0,0,0x0p+0,3,15,0x1.6d3fee9e499d8p-1 S=78:2aa47d2e8c5c5085"},
      {"logreg_gd/dense/hardcoded-pass",
       "n=40 h=06445dcedcdacb4f it=3 rs=0x1.9cb435fd120eep-4,0x1.658e8446d6326p-6,0x1.a49ac63118ee6p-2,0x1.8468f781f3d23p-3,15,10,15,0x1.ba7eec6f29838p-6,0x1.8b3429ec7bd7fp-4,0x0p+0,0,0x0p+0 ms=5,3,656960,960,0,0,0,0x1.8468f781f3d23p-3,849280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=25:9f77c0195a10dfee pa=0,0,0x0p+0,0,0x0p+0,3,15,0x1.6d3fee9e499d8p-1 S=78:2aa47d2e8c5c5085"},
      {"logreg_gd/dense/planner",
       "n=40 h=06445dcedcdacb4f it=3 rs=0x1.d66bd5ca5abaep-5,0x1.01ce9b683501cp-6,0x1.a49ac63118ee6p-2,0x1.8468f781f3d23p-3,6,7,6,0x1.ba7eec6f29838p-6,0x1.8b3429ec7bd7fp-4,0x0p+0,0,0x0p+0 ms=5,3,656960,960,0,0,0,0x1.8468f781f3d23p-3,705280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:ea142d2f6bf18c1c pa=1,3,0x1.544f3078263acp-6,9,0x1.fe76c8b439582p-5,3,6,0x1.53f225f457fdcp-1 S=45:8d844e5aa1c50ed0"},
      {"glm/csr/unfused",
       "n=40 h=308c96846602771a it=3 rs=0x1.4543a13f8048ap-3,0x1.746f5098465aap-4,0x1.78adeebb341e3p-2,0x1.4b52c9d16fc9cp-2,24,33,24,0x1.08cedb9ac5e98p-4,0x1.9973c4921d90cp-4,0x0p+0,0,0x0p+0 ms=16,12,210468,50880,0,0,0,0x1.4b52c9d16fc9cp-2,451108 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=57:2345972be43e71cc pa=0,0,0x0p+0,0,0x0p+0,18,24,0x1.ce6a723ebbd7ap-1 S=188:f7752769b19986d4"},
      {"glm/csr/hardcoded-pass",
       "n=40 h=25b4411cba2f88c7 it=3 rs=0x1.5ef8d7a5fd0dap-4,0x1.1052e23e675d1p-4,0x1.78adeebb341e2p-2,0x1.4b52c9d16fc9dp-2,12,21,12,0x1.0910b559e9806p-4,0x1.66cdeac67846p-3,0x0p+0,0,0x0p+0 ms=16,12,210468,50880,0,0,0,0x1.4b52c9d16fc9dp-2,259108 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=33:ce881eac473880a2 pa=0,0,0x0p+0,0,0x0p+0,18,12,0x1.7d92d3c1c8a1fp-1 S=128:d69ed99498bd453b"},
      {"glm/csr/planner",
       "n=40 h=25b4411cba2f88c7 it=3 rs=0x1.5ef8d7a5fd0dap-4,0x1.ddc94e6d25777p-6,0x1.78adeebb341e2p-2,0x1.4b52c9d16fc9dp-2,12,9,12,0x1.0910b559e9806p-4,0x1.66cdeac67846p-3,0x0p+0,0,0x0p+0 ms=16,12,210468,50880,0,0,0,0x1.4b52c9d16fc9dp-2,259108 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:7bdadbcabd4cea07 pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.cf0e6afcce1c6p-4,18,12,0x1.6a76c1ed64e1fp-1 S=104:7a37361fd2a01f73"},
      {"glm/dense/unfused",
       "n=40 h=1bd326abd56bb5f7 it=3 rs=0x1.8c55ff1015f7bp-3,0x1.746f5098465aap-4,0x1.1a05f3ee3230ap-1,0x1.a58175fdfab41p-2,24,33,24,0x1.4bdf31535f22ap-4,0x1.28671f715ce1ep-2,0x0p+0,0,0x0p+0 ms=16,12,738880,50880,0,0,0,0x1.a58175fdfab41p-2,979520 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=57:7f6d6d597ea2fea3 pa=0,0,0x0p+0,0,0x0p+0,18,24,0x1.357aae2cdf6d1p+0 S=188:88e51d67ac11346a"},
      {"glm/dense/hardcoded-pass",
       "n=40 h=4738915535911215 it=3 rs=0x1.682bdff740885p-2,0x1.1052e23e675d1p-4,0x1.1a05f3ee3230ap-1,0x1.a58175fdfab41p-2,12,21,12,0x1.4c70243b84cc8p-2,0x1.e6531fecb9863p-2,0x0p+0,0,0x0p+0 ms=16,12,738880,50880,0,0,0,0x1.a58175fdfab41p-2,787520 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=33:ba6ebcd6b3b2a0bd pa=0,0,0x0p+0,0,0x0p+0,18,12,0x1.4847fdb7c36d6p+0 S=128:5f2a5bcfd5d7e0d2"},
      {"glm/dense/planner",
       "n=40 h=4738915535911215 it=3 rs=0x1.682bdff740885p-2,0x1.ddc94e6d25777p-6,0x1.1a05f3ee3230ap-1,0x1.a58175fdfab41p-2,12,9,12,0x1.4c70243b84cc8p-2,0x1.e6531fecb9863p-2,0x0p+0,0,0x0p+0 ms=16,12,738880,50880,0,0,0,0x1.a58175fdfab41p-2,787520 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:d5654dfcb80a43a2 pa=1,1,0x1.0369d0369d037p-7,21,0x1.1e677e0530324p-3,18,12,0x1.3eb9f4cd918dap+0 S=104:bb728d4b9f2983b2"},
      {"svm/csr/unfused",
       "n=40 h=b155fed39ce43dd8 it=3 rs=0x1.218189c07f107p-4,0x1.ef9bed19f8a56p-3,0x1.b9e6256366d7ap-2,0x1.aacb85a4f00edp-3,10,59,10,0x1.d6c514a15fd8p-6,0x1.6bf52081e1644p-5,0x0p+0,0,0x0p+0 ms=9,7,241096,49280,0,0,0,0x1.aacb85a4f00edp-3,337096 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=69:9855dd065fc6c1fc pa=0,0,0x0p+0,0,0x0p+0,18,10,0x1.d448642efe811p-1 S=179:eaf7b4326dae6fbe"},
      {"svm/csr/hardcoded-pass",
       "n=40 h=c15ce89cac356420 it=3 rs=0x1.b809c1320565cp-4,0x1.729101d555fccp-6,0x1.670329802c0a5p-1,0x1.bcff64cf8d71cp-2,16,5,16,0x1.62219ee5f1d87p-4,0x1.b04e3244e3246p-3,0x0p+0,0,0x0p+0 ms=20,16,395248,52160,0,0,0,0x1.bcff64cf8d71cp-2,443248 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:0cc34a36d286efc7 pa=0,0,0x0p+0,0,0x0p+0,18,16,0x1.1b6fac8298ad7p+0 S=111:6a6cf6cdfde6dc1c"},
      {"svm/csr/planner",
       "n=40 h=c15ce89cac356420 it=3 rs=0x1.b809c1320565cp-4,0x1.729101d555fccp-6,0x1.670329802c0a5p-1,0x1.bcff64cf8d71cp-2,16,5,16,0x1.62219ee5f1d87p-4,0x1.b04e3244e3246p-3,0x0p+0,0,0x0p+0 ms=20,16,395248,52160,0,0,0,0x1.bcff64cf8d71cp-2,443248 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:0cc34a36d286efc7 pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.d10ecf2f4de32p-4,18,16,0x1.1b6fac8298ad7p+0 S=111:6a6cf6cdfde6dc1c"},
      {"svm/dense/unfused",
       "n=40 h=790008d495016e9d it=3 rs=0x1.0cf219a54c257p-2,0x1.45170287a65e9p-4,0x1.6307ba503a1bdp+0,0x1.919dc0283206ep-1,30,39,33,0x1.19c18a021d287p-3,0x1.8dc4017215ed1p-2,0x0p+0,0,0x0p+0 ms=22,18,2253640,52800,0,0,0,0x1.919dc0283206ep-1,2453160 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=69:7208f57704881324 pa=0,0,0x0p+0,0,0x0p+0,18,33,0x1.3cd519607088dp+1 S=230:39e0702b07047672"},
      {"svm/dense/hardcoded-pass",
       "n=40 h=964a3f9ed376abde it=3 rs=0x1.44e703dd8808dp-1,0x1.91e3cf54732b8p-8,0x1.6307ba503a1bdp+0,0x1.919dc0283206ep-1,18,3,21,0x1.370925ffaa2bp-1,0x1.551177de44abp-1,0x0p+0,0,0x0p+0 ms=22,18,2253640,52800,0,0,0,0x1.919dc0283206ep-1,2302280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:563ef1b5a58c5130 pa=0,0,0x0p+0,0,0x0p+0,18,21,0x1.539faf4b4a9a3p+1 S=122:58acc2fefdd2ad6d"},
      {"svm/dense/planner",
       "n=40 h=964a3f9ed376abde it=3 rs=0x1.44e703dd8808dp-1,0x1.91e3cf54732b8p-8,0x1.6307ba503a1bdp+0,0x1.919dc0283206ep-1,18,3,21,0x1.370925ffaa2bp-1,0x1.551177de44abp-1,0x0p+0,0,0x0p+0 ms=22,18,2253640,52800,0,0,0,0x1.919dc0283206ep-1,2302280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:563ef1b5a58c5130 pa=1,1,0x1.0369d0369d037p-7,21,0x1.2cbcc7b3e7c9bp-3,18,21,0x1.539faf4b4a9a3p+1 S=122:58acc2fefdd2ad6d"},
      {"hits/csr/unfused",
       "n=40 h=5f7396b0a4431acd it=3 rs=0x1.959f988762beep-5,0x1.8d8d8d8d8d8d8p-7,0x1.a152b0a6fc58ap-3,0x1.c944ed6fda836p-4,7,6,7,0x1.6113cf7907e2p-6,0x1.10f7d861690b3p-5,0x0p+0,0,0x0p+0 ms=5,4,112868,16960,0,0,0,0x1.c944ed6fda836p-4,176868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:02119ab10088e0fc pa=0,0,0x0p+0,0,0x0p+0,4,7,0x1.49d3c5cd7598ep-2 S=49:403fb2f53489ebf5"},
      {"hits/csr/hardcoded-pass",
       "n=40 h=5f7396b0a4431acd it=3 rs=0x1.d034d7a7da458p-6,0x1.8d8d8d8d8d8d8p-7,0x1.a152b0a6fc58ap-3,0x1.c944ed6fda836p-4,4,6,4,0x1.5da9ff426ade9p-6,0x1.061396198b4d2p-4,0x0p+0,0,0x0p+0 ms=5,4,112868,16960,0,0,0,0x1.c944ed6fda836p-4,128868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:22c205fd4c9c1087 pa=0,0,0x0p+0,0,0x0p+0,4,4,0x1.3423203706e55p-2 S=40:53af49fa079359ab"},
      {"hits/csr/planner",
       "n=40 h=5f7396b0a4431acd it=3 rs=0x1.d034d7a7da458p-6,0x1.8d8d8d8d8d8d8p-7,0x1.a152b0a6fc58ap-3,0x1.c944ed6fda836p-4,4,6,4,0x1.5da9ff426ade9p-6,0x1.061396198b4d2p-4,0x0p+0,0,0x0p+0 ms=5,4,112868,16960,0,0,0,0x1.c944ed6fda836p-4,128868 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:22c205fd4c9c1087 pa=1,1,0x1.7085d6cda7d6p-8,4,0x1.6febaa67177e2p-6,4,4,0x1.3423203706e55p-2 S=40:53af49fa079359ab"},
      {"hits/dense/unfused",
       "n=40 h=2054d9b3169b7139 it=3 rs=0x1.0288f9afb39f7p-4,0x1.8d8d8d8d8d8d8p-7,0x1.8c075174ae6f6p-2,0x1.98ffcf110315ep-3,7,6,7,0x1.ba7eec6f29838p-6,0x1.8b3429ec7bd7fp-4,0x0p+0,0,0x0p+0 ms=5,4,641280,16960,0,0,0,0x1.98ffcf110315ep-3,705280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:67b893107ca66138 pa=0,0,0x0p+0,0,0x0p+0,4,7,0x1.36a75b3b18abp-1 S=49:0e00f9eb89b87163"},
      {"hits/dense/hardcoded-pass",
       "n=40 h=090509a0fc4cbbdf it=3 rs=0x1.3bd0d2beeef51p-3,0x1.8d8d8d8d8d8d8p-7,0x1.8c075174ae6f6p-2,0x1.98ffcf110315ep-3,4,6,4,0x1.2953aaec71cd4p-3,0x1.7a4ec9aaf2a0bp-3,0x0p+0,0,0x0p+0 ms=5,4,641280,16960,0,0,0,0x1.98ffcf110315ep-3,657280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:3cb5f2930c6db4a8 pa=0,0,0x0p+0,0,0x0p+0,4,4,0x1.654a70b4ddf45p-1 S=40:ca06e7ee4d044ed1"},
      {"hits/dense/planner",
       "n=40 h=090509a0fc4cbbdf it=3 rs=0x1.3bd0d2beeef51p-3,0x1.8d8d8d8d8d8d8p-7,0x1.8c075174ae6f6p-2,0x1.98ffcf110315ep-3,4,6,4,0x1.2953aaec71cd4p-3,0x1.7a4ec9aaf2a0bp-3,0x0p+0,0,0x0p+0 ms=5,4,641280,16960,0,0,0,0x1.98ffcf110315ep-3,657280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:3cb5f2930c6db4a8 pa=1,1,0x1.0369d0369d037p-7,4,0x1.0022f3d9397bp-5,4,4,0x1.654a70b4ddf45p-1 S=40:ca06e7ee4d044ed1"},
      {"als/csr/unfused",
       "n=40 h=1ced1039db109969 it=3 rs=0x1.7f2e48e8a71dbp-1,0x1.ed54333ef9b6ep-4,0x1.ac94d50ebaae1p-1,0x1.c5f324de95055p-1,87,39,87,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=45,27,755884,243840,0,0,0,0x1.c5f324de95055p-1,17676844 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=126:c642f9224014d71b pa=0,0,0x0p+0,0,0x0p+0,30,87,0x1.338646ca56c9ap+1 S=443:3020971a213367b2"},
      {"als/csr/hardcoded-pass",
       "n=40 h=1ced1039db109969 it=3 rs=0x1.7f2e48e8a71dbp-1,0x1.ed54333ef9b6ep-4,0x1.ac94d50ebaae1p-1,0x1.c5f324de95055p-1,87,39,87,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=45,27,755884,243840,0,0,0,0x1.c5f324de95055p-1,17676844 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=126:c642f9224014d71b pa=0,0,0x0p+0,0,0x0p+0,30,87,0x1.338646ca56c9ap+1 S=443:3020971a213367b2"},
      {"als/csr/planner",
       "n=40 h=65c96b6fbb406760 it=3 rs=0x1.58793dd97f62bp-3,0x1.64898e35c6109p-3,0x1.a5564b662fdfcp-2,0x1.b7a919695d918p-2,27,27,27,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=17,15,416136,240000,0,0,0,0x1.b7a919695d918p-2,671496 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=54:a4438ee3c944c9a3 pa=1,2,0x1.55a38a24f9256p-7,54,0x1.28d750252316dp-2,30,27,0x1.fc78b7571d345p-1 S=184:0f25ea94e555145d"},
      {"als/dense/unfused",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x1.e8c49ba5e353ap-1,0x1.72cef7edb03f6p-4,0x1.af9f719184691p+0,0x1.4cde46b9698a1p+0,90,36,90,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=46,30,2996800,244800,0,0,0,0x1.4cde46b9698a1p+0,33749440 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=126:79c2f785fea6dfed pa=0,0,0x0p+0,0,0x0p+0,30,90,0x1.e7d846de6bbb7p+1 S=451:a7a34f5e8663a096"},
      {"als/dense/hardcoded-pass",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x1.e8c49ba5e353ap-1,0x1.72cef7edb03f6p-4,0x1.af9f719184691p+0,0x1.4cde46b9698a1p+0,90,36,90,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=46,30,2996800,244800,0,0,0,0x1.4cde46b9698a1p+0,33749440 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=126:79c2f785fea6dfed pa=0,0,0x0p+0,0,0x0p+0,30,90,0x1.e7d846de6bbb7p+1 S=451:a7a34f5e8663a096"},
      {"als/dense/planner",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x1.501a36e2eb1c2p-2,0x1.91e3cf54732b9p-6,0x1.65e5135c44ec1p+0,0x1.25f4cde46b96ap+0,42,12,42,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=34,30,2804800,244800,0,0,0,0x1.25f4cde46b96ap+0,3029440 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=54:072f4356b0d513b5 pa=1,2,0x1.a305532617c1cp-7,54,0x1.7057619f0fb3bp-2,30,42,0x1.56e5cb2b6cf65p+1 S=235:48473c36b8729657"},
      {"kmeans/csr/unfused",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.57a089304e34fp-4,0x1.552c3673e4886p-5,0x1.a152b0a6fc58ap-3,0x1.3477bbf93ff25p-2,12,12,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,115428,192000,0,0,0,0x1.3477bbf93ff25p-2,303908 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:b3010f84bfaa4861 pa=0,0,0x0p+0,0,0x0p+0,12,12,0x1.42d75eb3a71e8p-1 S=100:35ea15016effe182"},
      {"kmeans/csr/hardcoded-pass",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.57a089304e34fp-4,0x1.552c3673e4886p-5,0x1.a152b0a6fc58ap-3,0x1.3477bbf93ff25p-2,12,12,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,115428,192000,0,0,0,0x1.3477bbf93ff25p-2,303908 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:b3010f84bfaa4861 pa=0,0,0x0p+0,0,0x0p+0,12,12,0x1.42d75eb3a71e8p-1 S=100:35ea15016effe182"},
      {"kmeans/csr/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.57a089304e34fp-4,0x0p+0,0x1.a152b0a6fc58ap-3,0x1.3477bbf93ff25p-2,12,0,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,115428,192000,0,0,0,0x1.3477bbf93ff25p-2,303908 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:6e622a703295a525 pa=1,1,0x1.7085d6cda7d6p-8,12,0x1.1464611a3de08p-4,12,12,0x1.bf635344d9dd1p-2 S=76:7485faa95290ce71"},
      {"kmeans/dense/unfused",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.bbbbbbbbbbbb9p-4,0x1.552c3673e4886p-5,0x1.8c075174ae6f6p-2,0x1.8ea66825cadc9p-2,12,12,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,643840,192000,0,0,0,0x1.8ea66825cadc9p-2,832320 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:7a22168c510c5f05 pa=0,0,0x0p+0,0,0x0p+0,12,12,0x1.da2117abf265ep-1 S=100:0a92382037ea983d"},
      {"kmeans/dense/hardcoded-pass",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.bbbbbbbbbbbb9p-4,0x1.552c3673e4886p-5,0x1.8c075174ae6f6p-2,0x1.8ea66825cadc9p-2,12,12,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,643840,192000,0,0,0,0x1.8ea66825cadc9p-2,832320 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:7a22168c510c5f05 pa=0,0,0x0p+0,0,0x0p+0,12,12,0x1.da2117abf265ep-1 S=100:0a92382037ea983d"},
      {"kmeans/dense/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.bbbbbbbbbbbb9p-4,0x0p+0,0x1.8c075174ae6f6p-2,0x1.8ea66825cadc9p-2,12,0,12,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,12,643840,192000,0,0,0,0x1.8ea66825cadc9p-2,832320 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:50a013f2c26af2d9 pa=1,1,0x1.0369d0369d037p-7,12,0x1.851eb851eb853p-4,12,12,0x1.76fb629ab835ep-1 S=76:413cdf550baa9d70"},
      {"pagerank/csr/unfused",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.34d13bbab48fbp-6,0x0p+0,0x0p+0,0,9,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:20b50da0e1cd8571 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.34d13bbab48fbp-6 S=22:8e60ea55938d4c2c"},
      {"pagerank/csr/hardcoded-pass",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.34d13bbab48fbp-6,0x0p+0,0x0p+0,0,9,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:20b50da0e1cd8571 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.34d13bbab48fbp-6 S=22:8e60ea55938d4c2c"},
      {"pagerank/csr/planner",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.bb514977a3f3ap-8,0x0p+0,0x0p+0,0,3,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=3:5247b69acda7ffb4 pa=1,1,0x1.489c0c6a59b18p-8,3,0x1.ecea129f868a4p-7,3,0,0x1.bb514977a3f3ap-8 S=10:e3c75b17287d448f"},
      {"pagerank/dense/unfused",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.48e27c15af48fp-6,0x0p+0,0x0p+0,0,9,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:e6b71498344119f9 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.48e27c15af48fp-6 S=22:adca717297c0f154"},
      {"pagerank/dense/hardcoded-pass",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.48e27c15af48fp-6,0x0p+0,0x0p+0,0,9,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:e6b71498344119f9 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.48e27c15af48fp-6 S=22:adca717297c0f154"},
      {"pagerank/dense/planner",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.01533ec3e29aep-7,0x0p+0,0x0p+0,0,3,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=3:f848472f9d4eb4a7 pa=1,1,0x1.4b980d78a6638p-8,3,0x1.f1641434f9954p-7,3,0,0x1.01533ec3e29aep-7 S=10:dbbafdee0ad41b45"},
      {"minibatch_logreg/csr/unfused",
       "n=40 h=f73adcb797f19904 it=3 rs=0x0p+0,0x1.10b806c809c2ap-4,0x0p+0,0x0p+0,0,24,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:b125b97c6cc15ae8 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.ef3393a5851fep-5 S=52:94b81debacb9d72c"},
      {"minibatch_logreg/csr/hardcoded-pass",
       "n=40 h=f73adcb797f19904 it=3 rs=0x0p+0,0x1.10b806c809c2ap-4,0x0p+0,0x0p+0,0,24,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:b125b97c6cc15ae8 pa=0,0,0x0p+0,0,0x0p+0,3,0,0x1.ef3393a5851fep-5 S=52:94b81debacb9d72c"},
      {"minibatch_logreg/csr/planner",
       "n=40 h=f73adcb797f19904 it=3 rs=0x0p+0,0x1.45ede9718adcfp-5,0x0p+0,0x0p+0,0,12,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:f31a3efd502b35ef pa=1,3,0x1.f55b28a4343f4p-7,9,0x1.780d535e04508p-5,3,0,0x1.13b16f86fc778p-5 S=28:6d3a55097677812f"},
      {"minibatch_logreg/dense/unfused",
       "n=40 h=b847099007546eef it=3 rs=0x1.27189688258c4p-5,0x1.4df1c8d310812p-5,0x1.9cc100e6afccep-2,0x1.dfe32a0663c74p-3,6,18,6,0x1.26ecd3d3514b5p-6,0x1.d579505a9808ap-6,0x0p+0,0,0x0p+0 ms=9,6,492960,12960,0,0,0,0x1.dfe32a0663c74p-3,505280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:aa867c6500d4c45d pa=0,0,0x0p+0,0,0x0p+0,3,6,0x1.6a86294bfb52cp-1 S=80:29eff1e01963dfba"},
      {"minibatch_logreg/dense/hardcoded-pass",
       "n=40 h=b847099007546eef it=3 rs=0x1.27189688258c4p-5,0x1.4df1c8d310812p-5,0x1.9cc100e6afccep-2,0x1.dfe32a0663c74p-3,6,18,6,0x1.26ecd3d3514b5p-6,0x1.d579505a9808ap-6,0x0p+0,0,0x0p+0 ms=9,6,492960,12960,0,0,0,0x1.dfe32a0663c74p-3,505280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:aa867c6500d4c45d pa=0,0,0x0p+0,0,0x0p+0,3,6,0x1.6a86294bfb52cp-1 S=80:29eff1e01963dfba"},
      {"minibatch_logreg/dense/planner",
       "n=40 h=b847099007546eef it=3 rs=0x1.2dec36f55f93p-5,0x1.91e3cf54732b7p-7,0x1.9cc100e6afccep-2,0x1.9e59f2ba9d1f6p-3,6,6,6,0x1.26ecd3d3514b5p-6,0x1.d579505a9808ap-6,0x0p+0,0,0x0p+0 ms=9,3,492960,960,0,0,0,0x1.9e59f2ba9d1f6p-3,505280 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:d243782948b70c25 pa=1,3,0x1.0d7b900aec33ep-6,9,0x1.94395810624ddp-5,3,6,0x1.4bf9882ffe0ddp-1 S=53:fefe4d6c6be9d93f"},
      {"no_gpu/lr_cg/csr/planner",
       "n=40 h=de6d8a8c191bd265 it=3 rs=0x0p+0,0x1.daebd8ab6d6d8p-4,0x0p+0,0x0p+0,0,24,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:ac45c3cb8ab9439b pa=1,1,0x1.6fb84644e760ep-8,3,0x1.13ca34b3ad88ap-6,3,0,0x1.06a292ef47e73p-4 S=50:64d83219f5fed247"},
      {"no_gpu/lr_cg/dense/planner",
       "n=40 h=de6d8a8c191bd265 it=3 rs=0x0p+0,0x1.07e0321da2c18p-2,0x0p+0,0x0p+0,0,24,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:986c6ad62270b8e8 pa=1,1,0x1.fe16aa1edb45cp-8,3,0x1.7e90ff9724745p-6,3,0,0x1.7a7d0c6891874p-3 S=50:7861bb163a4348ae"},
      {"no_gpu/logreg_gd/csr/planner",
       "n=40 h=13ec6a3de22bf053 it=3 rs=0x0p+0,0x1.6d11628f6e1a8p-4,0x0p+0,0x0p+0,0,13,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:8b1e0b4734ba9186 pa=1,3,0x1.09284ba85d225p-6,9,0x1.8dbc717c8bb38p-5,3,0,0x1.45bbf8aaa80ccp-4 S=28:dfd26a6d57c0a5dd"},
      {"no_gpu/logreg_gd/dense/planner",
       "n=40 h=13ec6a3de22bf053 it=3 rs=0x0p+0,0x1.afdb607f37898p-3,0x0p+0,0x0p+0,0,13,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=13:05719b6886039236 pa=1,3,0x1.544f3078263acp-6,9,0x1.fe76c8b439582p-5,3,0,0x1.9c30ab8cd4829p-3 S=28:476e871dca5ee868"},
      {"no_gpu/glm/csr/planner",
       "n=40 h=6a6d3d83c7da197a it=3 rs=0x0p+0,0x1.e6a14b7708113p-3,0x0p+0,0x0p+0,0,21,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:772dfb3a4c183e50 pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.cf0e6afcce1c6p-4,18,0,0x1.e6a14b7708113p-3 S=55:6e2c19f439470605"},
      {"no_gpu/glm/dense/planner",
       "n=40 h=6a6d3d83c7da197a it=3 rs=0x0p+0,0x1.337e5fa75569dp-1,0x0p+0,0x0p+0,0,21,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:64cc45b3d8121cd4 pa=1,1,0x1.0369d0369d037p-7,21,0x1.1e677e0530324p-3,18,0,0x1.337e5fa75569dp-1 S=55:4e47f412062d834b"},
      {"no_gpu/svm/csr/planner",
       "n=40 h=372bdb9dd49cfbba it=3 rs=0x0p+0,0x1.115d44b13c801p-2,0x0p+0,0x0p+0,0,21,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:0839677839649d5a pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.d10ecf2f4de32p-4,18,0,0x1.115d44b13c801p-2 S=52:19689a7adcabc5fb"},
      {"no_gpu/svm/dense/planner",
       "n=40 h=372bdb9dd49cfbba it=3 rs=0x0p+0,0x1.899bc4ba7d0c5p-1,0x0p+0,0x0p+0,0,21,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:07d0a27acab19d6a pa=1,1,0x1.0369d0369d037p-7,21,0x1.2cbcc7b3e7c9bp-3,18,0,0x1.899bc4ba7d0c5p-1 S=52:bd70e98989c54f6a"},
      {"no_gpu/hits/csr/planner",
       "n=40 h=5193678e539dab51 it=3 rs=0x0p+0,0x1.652c170d2f11ap-4,0x0p+0,0x0p+0,0,10,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:08664d9f275ed04f pa=1,1,0x1.7085d6cda7d6p-8,4,0x1.6febaa67177e2p-6,4,0,0x1.337a655b7d5ffp-4 S=25:84d7e56677da282a"},
      {"no_gpu/hits/dense/planner",
       "n=40 h=5193678e539dab51 it=3 rs=0x0p+0,0x1.d505a9808ac84p-3,0x0p+0,0x0p+0,0,10,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:efdded389d5c271d pa=1,1,0x1.0369d0369d037p-7,4,0x1.0022f3d9397bp-5,4,0,0x1.bc2cd0a7b1ef6p-3 S=25:5daaa668b66538d7"},
      {"no_gpu/als/csr/planner",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x0p+0,0x1.9034e029b468ep-2,0x0p+0,0x0p+0,0,54,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=54:166b81c4b5f1439e pa=1,2,0x1.55a38a24f9256p-7,54,0x1.28d750252316dp-2,30,0,0x1.9034e029b468ep-2 S=121:baeb6fe73b516239"},
      {"no_gpu/als/dense/planner",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x0p+0,0x1.05982783aca26p+0,0x0p+0,0x0p+0,0,54,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=54:181699d7843b18cd pa=1,2,0x1.a305532617c1cp-7,54,0x1.7057619f0fb3bp-2,30,0,0x1.05982783aca26p+0 S=121:be3d8531a091d954"},
      {"no_gpu/kmeans/csr/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x0p+0,0x1.2c563d4a828cfp-3,0x0p+0,0x0p+0,0,12,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:e875ad5f2e0fc151 pa=1,1,0x1.7085d6cda7d6p-8,12,0x1.1464611a3de08p-4,12,0,0x1.2c563d4a828cfp-3 S=37:17acfbc713f68b7c"},
      {"no_gpu/kmeans/dense/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x0p+0,0x1.8b05e72edcf17p-2,0x0p+0,0x0p+0,0,12,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:1793c63d04e1ed65 pa=1,1,0x1.0369d0369d037p-7,12,0x1.851eb851eb853p-4,12,0,0x1.8b05e72edcf17p-2 S=37:9af2e1bd80cecdd2"},
      {"no_gpu/pagerank/csr/planner",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.bb514977a3f3ap-8,0x0p+0,0x0p+0,0,3,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=3:5247b69acda7ffb4 pa=1,1,0x1.489c0c6a59b18p-8,3,0x1.ecea129f868a4p-7,3,0,0x1.bb514977a3f3ap-8 S=10:e3c75b17287d448f"},
      {"no_gpu/pagerank/dense/planner",
       "n=40 h=66aa083a8d292303 it=3 rs=0x0p+0,0x1.01533ec3e29aep-7,0x0p+0,0x0p+0,0,3,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=3:f848472f9d4eb4a7 pa=1,1,0x1.4b980d78a6638p-8,3,0x1.f1641434f9954p-7,3,0,0x1.01533ec3e29aep-7 S=10:dbbafdee0ad41b45"},
      {"no_gpu/minibatch_logreg/csr/planner",
       "n=40 h=f73adcb797f19904 it=3 rs=0x0p+0,0x1.45ede9718adcfp-5,0x0p+0,0x0p+0,0,12,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:f31a3efd502b35ef pa=1,3,0x1.f55b28a4343f4p-7,9,0x1.780d535e04508p-5,3,0,0x1.13b16f86fc778p-5 S=28:6d3a55097677812f"},
      {"no_gpu/minibatch_logreg/dense/planner",
       "n=40 h=f73adcb797f19904 it=3 rs=0x0p+0,0x1.1f0d219c7dc56p-4,0x0p+0,0x0p+0,0,12,0,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,0,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=12:1c8a52f2fb20a3ae pa=1,3,0x1.0d7b900aec33ep-6,9,0x1.94395810624ddp-5,3,0,0x1.05eee4a73692bp-4 S=28:72022981990ca4fd"},
      {"stream/lr_cg/csr/hardcoded-pass",
       "n=40 h=3c9d3a1c3e648dea it=3 rs=0x1.11ef15ccf0dfp-3,0x1.9c3ac12d89239p-3,0x0p+0,0x1.2802e2328f9f4p+0,3,21,9,0x1.11ef15ccf0dfp-3,0x1.fbab06d072fc5p-1,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,3,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:c6b5dfcc0b10c609 pa=0,0,0x0p+0,0,0x0p+0,3,9,0x1.4a40c4ec2dbb3p+0 S=68:bbac8822a433bee6"},
      {"stream/lr_cg/dense/planner",
       "n=40 h=bd2cada5e166c0e6 it=3 rs=0x1.1ae2b673caadcp-1,0x1.607781bf2fd3ap-2,0x0p+0,0x1.a9003eea209abp+1,3,21,9,0x1.1ae2b673caadcp-1,0x1.cafb4d38bddc8p+0,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,3,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:b385b139cc4e6a24 pa=1,1,0x1.0c8fa210a8358p-5,3,0x1.92d77318fc504p-4,3,9,0x1.efb8ec8713462p+1 S=68:4add9b46783b6dad"},
      {"stream/hits/csr/planner",
       "n=40 h=78d52adf3bd3d473 it=3 rs=0x1.11de9f5d27f94p-3,0x1.61a25ec94842p-3,0x0p+0,0x1.27f865d7cb2d9p+0,3,7,9,0x1.11de9f5d27f94p-3,0x1.fb992735bb69p-1,0x0p+0,0,0x0p+0 ms=0,0,0,0,0,0,3,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=10:8345790998fcaf02 pa=1,1,0x1.f806a05cea5d4p-7,4,0x1.06a3ead8b0002p-4,4,9,0x1.734d6a817e19fp+0 S=43:a999e6968ee4e26b"},
      {"stream/glm/dense/hardcoded-pass",
       "n=40 h=98f26078834b7119 it=3 rs=0x1.1306e1ffc8301p+0,0x1.d54829711f33dp+0,0x1.147ae147ae148p-1,0x1.8de69ad42c3cap+2,20,12,30,0x1.f3eba1dd6e3ep-1,0x1.87e57f18b24bep+1,0x0p+0,0,0x0p+0 ms=9,6,1440000,960000,0,0,5,0x1.199999999999ap-1,2880000 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=32:8b852d394156711b pa=0,0,0x0p+0,0,0x0p+0,17,30,0x1.3544dcecadec1p+3 S=146:f634e5ec2d57a726"},
      {"evict/glm/csr/unfused",
       "n=40 h=308c96846602771a it=3 rs=0x1.4e03fb7ed894ep-2,0x0p+0,0x1.81af5ba2be057p-1,0x1.2350f40e5a35fp+0,57,0,57,0x1.08cedb9ac5e98p-4,0x1.9973c4921d90cp-4,0x0p+0,0,0x0p+0 ms=43,54,551404,456320,65,12,0,0x1.2350f40e5a36p+0,175588 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=57:5ee64c22c585828d pa=0,0,0x0p+0,0,0x0p+0,18,57,0x1.0b62c8049f5a6p+1 S=374:9e58fba1edbdfcf1"},
      {"evict/als/csr/planner",
       "n=40 h=9fc838703591747b it=3 rs=0x1.44bf0995aaf76p-2,0x0p+0,0x1.490364388ebcdp-1,0x1.3dd46df29377ap+0,54,0,54,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=42,50,1489776,439360,66,16,0,0x1.3dd46df29377bp+0,160548 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=54:1e83cf900872ab14 pa=1,2,0x1.55a38a24f9256p-7,54,0x1.28d750252316dp-2,30,54,0x1.dc47373dcb842p+0 S=341:34b832743b02a8bb"},
      {"evict/kmeans/csr/unfused",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.2a1b5c7cd898bp-3,0x0p+0,0x1.f792d1287c204p-2,0x1.35e1c15097c83p-1,24,0,24,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=25,24,307428,384000,21,0,0,0x1.35e1c15097c83p-1,159908 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=24:66c4ba767e17dc01 pa=0,0,0x0p+0,0,0x0p+0,12,24,0x1.172f87ad080b8p+0 S=169:367aef0d68726c24"},
      {"evict/svm/dense/planner",
       "n=40 h=964a3f9ed376abde it=3 rs=0x1.4c970fa96e25dp-1,0x0p+0,0x1.72739dce2355dp+0,0x1.13fbbd7b2031fp+0,21,0,24,0x1.370925ffaa2bp-1,0x1.551177de44abp-1,0x0p+0,0,0x0p+0 ms=27,21,3534600,53760,31,6,0,0x1.13fbbd7b2031fp+0,657920 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:24818bfc2359a1bb pa=1,1,0x1.0369d0369d037p-7,21,0x1.2cbcc7b3e7c9bp-3,18,24,0x1.7e32d85e3f3f3p+1 S=167:456301b16dbc393b"},
      {"faults/lr_cg/csr/planner",
       "n=40 h=e026630f93c0fe44 it=3 rs=0x1.3070f80b00eeap-3,0x0p+0,0x1.fb994e1a3f466p-3,0x1.76e98f339d74ap-4,24,0,28,0x1.8de38c7d135acp-5,0x1.342136ff8413cp-4,0x1.d12b086c60259p-3,4,0x1.47e821111cb2fp-6 ms=4,3,128228,960,0,0,0,0x1.76e98f339d74ap-4,129508 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,4,0,0,0,0,4,2,0,4,0x1.47e821111cb2fp-6,0x1.999999999999ap-3,0x1.bc8b7696345f5p-6 T=24:3ead0aa17e1ff3f1 pa=1,1,0x1.6fb84644e760ep-8,3,0x1.13ca34b3ad88ap-6,3,3,0x1.5605351e19f0fp-4 S=105:658ff9b2ed29f718"},
      {"faults/lr_cg/dense/planner",
       "n=40 h=8f2de3b317c94cdf it=3 rs=0x1.1e4c69511359ep-2,0x0p+0,0x1.b92aa02e4fe64p-2,0x1.6fd21ff2e48e8p-3,24,0,29,0x1.6fa0bdb66a9bfp-3,0x1.bc5b136550d5fp-3,0x1.c2949a5657fb7p-3,4,0x1.47e821111cb2fp-6 ms=4,3,656640,960,0,0,0,0x1.6fd21ff2e48e8p-3,657920 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,4,0,0,0,0,4,2,0,4,0x1.47e821111cb2fp-6,0x1.999999999999ap-3,0x1.47d805e5f30e8p-6 T=24:72898064631457bb pa=1,1,0x1.fe16aa1edb45cp-8,3,0x1.7e90ff9724745p-6,3,3,0x1.29f49507582dp-3 S=104:ea3ab3a7a4e098ad"},
      {"faults/logreg_gd/csr/planner",
       "n=40 h=1838d7abc219c073 it=3 rs=0x1.bbb9584c094c8p-4,0x0p+0,0x1.d2799a1fd156ap-3,0x1.58702768b3002p-4,13,0,19,0x1.2b80f422eeb42p-5,0x1.10f7d861690b3p-5,0x1.c299d883ba345p-5,6,0x1.f2923568df2e4p-6 ms=3,3,127908,16640,2,0,0,0x1.58702768b3002p-4,161508 mres=2,0,0,0,0,0,2,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=1,1,0,0,0,0,1,1,0,6,0x1.f2923568df2e4p-6,0x1.999999999999ap-5,0x1.4801f75104d55p-8 T=13:16a1ac0bf81f6bf1 pa=1,3,0x1.09284ba85d225p-6,9,0x1.8dbc717c8bb38p-5,3,9,0x1.4aa372ef9a0f9p-2 S=67:792eed46428794a6"},
      {"faults/logreg_gd/dense/planner",
       "n=40 h=06445dcedcdacb4f it=3 rs=0x1.f7e7b8f939e37p-4,0x0p+0,0x1.a49ac63118ee6p-2,0x1.60956c0d6f544p-3,13,0,19,0x1.5836829dff84ep-5,0x1.8b3429ec7bd7fp-4,0x1.c299d883ba345p-5,6,0x1.f2923568df2e4p-6 ms=3,3,656320,16640,2,0,0,0x1.60956c0d6f544p-3,689920 mres=2,0,0,0,0,0,2,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=1,1,0,0,0,0,1,1,0,6,0x1.f2923568df2e4p-6,0x1.999999999999ap-5,0x1.4801f75104d55p-8 T=13:15c9033e4a12076a pa=1,3,0x1.544f3078263acp-6,9,0x1.fe76c8b439582p-5,3,9,0x1.379dd83450b15p-1 S=67:50c30b518dd30a5c"},
      {"faults/glm/csr/planner",
       "n=40 h=25b4411cba2f88c7 it=3 rs=0x1.899d2ddc14a1bp-3,0x0p+0,0x1.2aeff5c6c11ap-2,0x1.434b945308bbap-2,21,0,33,0x1.c18347f389a5p-4,0x1.66cdeac67846p-3,0x1.19beea78e3bccp-2,12,0x1.ef373381451d6p-5 ms=16,12,163428,50880,1,1,0,0x1.434b945308bbap-2,292388 mres=1,0,0,0,0,0,1,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=5,5,0,0,0,0,5,1,0,12,0x1.ef373381451d6p-5,0x1p-2,0x1.9beea78e3bcc1p-6 T=21:4eea6cb6e51ec622 pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.cf0e6afcce1c6p-4,18,21,0x1.c5a8f11be64ddp-1 S=155:f3c0d46d768648fb"},
      {"faults/glm/dense/planner",
       "n=40 h=4738915535911215 it=3 rs=0x1.d53c40fbcb95cp-2,0x0p+0,0x1.e64deee7f15d1p-2,0x1.9d7a407f93a6p-2,21,0,33,0x1.7a8cc8e1ecd5ap-2,0x1.e6531fecb9863p-2,0x1.19beea78e3bccp-2,12,0x1.ef373381451d6p-5 ms=16,12,691840,50880,1,1,0,0x1.9d7a407f93a6p-2,820800 mres=1,0,0,0,0,0,1,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=5,5,0,0,0,0,5,1,0,12,0x1.ef373381451d6p-5,0x1p-2,0x1.9beea78e3bcc1p-6 T=21:faa97bda1c27d3cd pa=1,1,0x1.0369d0369d037p-7,21,0x1.1e677e0530324p-3,18,21,0x1.6c530c64d2435p+0 S=155:b3627dc8eccab559"},
      {"faults/svm/csr/planner",
       "n=40 h=bd10ce3c4f72be79 it=3 rs=0x1.ceabd8bb2aaf7p-3,0x0p+0,0x1.9d4f5903a7547p-1,0x1.60b34e768598bp-1,21,0,39,0x1.656314d2073fcp-3,0x1.d2113404ea4a9p-3,0x1.3738ab042eb41p-1,18,0x1.7292a6270d51dp-4 ms=25,18,419448,52800,1,0,0,0x1.60b34e768598bp-1,452088 mres=4,3,0,0,0,0,4,0,0,0,0x0p+0,0x1.3333333333334p-3,0x1.ee2435696e58bp-6 res=6,6,0,0,0,0,3,4,0,18,0x1.7292a6270d51dp-4,0x1.199999999999ap-1,0x1.d9f116a951a72p-5 T=21:dff4300f4d2a4e59 pa=1,1,0x1.7085d6cda7d6p-8,21,0x1.d10ecf2f4de32p-4,18,21,0x1.ee35781548cb7p+0 S=193:0cad01390b248129"},
      {"faults/svm/dense/planner",
       "n=40 h=964a3f9ed376abde it=3 rs=0x1.726cd425e059bp-1,0x0p+0,0x1.72739dce2355dp+0,0x1.c4f3e7349eb52p-1,21,0,45,0x1.54f9c9973c11ap-1,0x1.551177de44abp-1,0x1.4558a63b0b02fp-1,18,0x1.7292a6270d51dp-4 ms=25,19,2254600,53120,2,0,0,0x1.c4f3e7349eb52p-1,2286920 mres=3,1,0,0,0,0,3,0,0,0,0x0p+0,0x1.999999999999ap-5,0x1.496d78f0f43b2p-7 res=9,7,2,2,0,0,5,4,0,18,0x1.7292a6270d51dp-4,0x1.ccccccccccccdp-2,0x1.7bc8ff5292722p-3 T=21:78d7e53bdbcbd4dc pa=1,1,0x1.0369d0369d037p-7,21,0x1.2cbcc7b3e7c9bp-3,18,27,0x1.acf9250b265cp+1 S=206:384757d5a53a6304"},
      {"faults/hits/csr/planner",
       "n=40 h=81ddbb8fe1255c71 it=3 rs=0x1.4187d161ce98ap-4,0x0p+0,0x1.a152b0a6fc58ap-3,0x1.21db2e003520bp-3,10,0,14,0x1.29cc0c07a0326p-5,0x1.061396198b4d2p-4,0x1.5648d56a38916p-3,4,0x1.4a24cd00d8be4p-6 ms=2,4,111908,16960,0,0,0,0x1.21db2e003520bp-3,128868 mres=1,1,0,0,0,0,1,0,0,0,0x0p+0,0x1.999999999999ap-5,0x1.496d78f0f43b2p-7 res=2,2,0,0,0,0,1,1,0,4,0x1.4a24cd00d8be4p-6,0x1.3333333333334p-3,0x1.18ad11b82af0ep-6 T=10:bf4d29fe25b1b6f0 pa=1,1,0x1.7085d6cda7d6p-8,4,0x1.6febaa67177e2p-6,4,4,0x1.c06547958c488p-2 S=61:b7de94481a2f5120"},
      {"faults/hits/dense/planner",
       "n=40 h=090509a0fc4cbbdf it=3 rs=0x1.a28e207adaf8bp-3,0x0p+0,0x1.8c075174ae6f6p-2,0x1.d63886594af4ep-3,10,0,14,0x1.48116e060c7ep-3,0x1.7a4ec9aaf2a0bp-3,0x1.5a74a23007cc5p-3,4,0x1.4a24cd00d8be4p-6 ms=2,4,640320,16960,0,0,0,0x1.d63886594af4ep-3,657280 mres=1,1,0,0,0,0,1,0,0,0,0x0p+0,0x1.999999999999ap-5,0x1.496d78f0f43b2p-7 res=2,2,0,0,0,0,1,1,0,4,0x1.4a24cd00d8be4p-6,0x1.3333333333334p-3,0x1.3a0b77e6a4c88p-6 T=10:6ed10cd8ba571a4e pa=1,1,0x1.0369d0369d037p-7,4,0x1.0022f3d9397bp-5,4,4,0x1.ac7677959474cp-1 S=61:d706bcdd5169affa"},
      {"faults/als/csr/planner",
       "n=40 h=9fc838703591747b it=3 rs=0x1.e08cba4670b6p-2,0x0p+0,0x1.490364388ebcdp-1,0x1.e258bf258bf32p-1,54,0,84,0x0p+0,0x0p+0,0x1.481bbd3c7da66p+0,30,0x1.379b61618b7cdp-3 ms=35,30,771380,244800,2,1,0,0x1.e258bf258bf32p-1,872272 mres=4,2,0,0,0,0,4,0,0,0,0x0p+0,0x1.999999999999ap-4,0x1.743e963dc486bp-6 res=22,18,4,4,0,0,18,7,0,30,0x1.379b61618b7cdp-3,0x1.2666666666668p+0,0x1.0daab6b0bap-3 T=54:54094f06ac338027 pa=1,2,0x1.55a38a24f9256p-7,54,0x1.28d750252316dp-2,30,54,0x1.5c282913f5801p+1 S=395:50f5adef92c807ef"},
      {"faults/als/dense/planner",
       "n=40 h=f6ad3ac1562c3173 it=3 rs=0x1.14b422f970e15p-1,0x0p+0,0x1.65e5135c44ec1p+0,0x1.633d3fb4da1fdp+0,54,0,84,0x0p+0,0x0p+0,0x1.4c66574cedef6p+0,30,0x1.379b61618b7cdp-3 ms=35,30,3444800,244800,2,1,0,0x1.633d3fb4da1fdp+0,3017280 mres=4,2,0,0,0,0,4,0,0,0,0x0p+0,0x1.999999999999ap-4,0x1.743e963dc486bp-6 res=22,18,4,4,0,0,18,7,0,30,0x1.379b61618b7cdp-3,0x1.2666666666668p+0,0x1.2fff87343c47bp-3 T=54:11ed6024778d8096 pa=1,2,0x1.a305532617c1cp-7,54,0x1.7057619f0fb3bp-2,30,54,0x1.0091842162501p+2 S=395:9ac2564eab5e7724"},
      {"faults/kmeans/csr/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.2a2252e62bee6p-3,0x0p+0,0x1.a152b0a6fc58ap-3,0x1.3477bbf93ff25p-2,12,0,24,0x0p+0,0x0p+0,0x1.2a6302aeb102fp-2,12,0x1.f948393813501p-5 ms=13,12,115428,192000,1,0,0,0x1.3477bbf93ff25p-2,287908 mres=1,0,0,0,0,0,1,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,4,0,0,0,0,3,3,0,12,0x1.f948393813501p-5,0x1p-2,0x1.5318157588177p-5 T=12:972c3647440e67b9 pa=1,1,0x1.7085d6cda7d6p-8,12,0x1.1464611a3de08p-4,12,12,0x1.74e32af9c57p-1 S=118:895bee815e594a18"},
      {"faults/kmeans/dense/planner",
       "n=160 h=440fce26e6a7a637 it=3 rs=0x1.5c2fec2be2b1cp-3,0x0p+0,0x1.8c075174ae6f6p-2,0x1.8ea66825cadc9p-2,12,0,24,0x0p+0,0x0p+0,0x1.30a4b5d767db6p-2,12,0x1.f948393813501p-5 ms=13,12,643840,192000,1,0,0,0x1.8ea66825cadc9p-2,816320 mres=1,0,0,0,0,0,1,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,4,0,0,0,0,3,3,0,12,0x1.f948393813501p-5,0x1p-2,0x1.8525aebb3edaep-5 T=12:53a6dc40777e9b83 pa=1,1,0x1.0369d0369d037p-7,12,0x1.851eb851eb853p-4,12,12,0x1.07a6dec33611cp+0 S=118:89896ffbe379bc0f"},
      {"faults/pagerank/csr/planner",
       "n=40 h=ca8ca93bcc7c13c2 it=3 rs=0x1.ed62117b60d7cp-6,0x0p+0,0x1.040f238972043p-4,0x1.f0db10a403c78p-5,3,0,6,0x0p+0,0x0p+0,0x0p+0,3,0x1.ebdc3199ab0c6p-7 ms=3,3,2948,960,0,0,0,0x1.f0db10a403c78p-5,3908 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,3,0x1.ebdc3199ab0c6p-7,0x0p+0,0x0p+0 T=3:d5aa5b242dee911a pa=1,1,0x1.489c0c6a59b18p-8,3,0x1.ecea129f868a4p-7,3,3,0x1.bed09cacbb262p-4 S=28:9adf6d6a9df863ab"},
      {"faults/pagerank/dense/planner",
       "n=40 h=66aa083a8d292303 it=3 rs=0x1.f0bde68e4d43ap-6,0x0p+0,0x1.12d0758724048p-4,0x1.ff2e48e8a71dep-5,3,0,6,0x0p+0,0x0p+0,0x0p+0,3,0x1.ebdc3199ab0c6p-7 ms=3,3,13440,960,0,0,0,0x1.ff2e48e8a71dep-5,14400 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,3,0x1.ebdc3199ab0c6p-7,0x0p+0,0x0p+0 T=3:91bba2b85789008b pa=1,1,0x1.4b980d78a6638p-8,3,0x1.f1641434f9954p-7,3,3,0x1.d592801179ecdp-4 S=28:084799bb8364cee0"},
      {"faults/minibatch_logreg/csr/planner",
       "n=40 h=17bacee27c395eb1 it=3 rs=0x1.7f3d0768d9c64p-4,0x0p+0,0x1.10563ed0f6274p-2,0x1.8989c8b2d36e2p-4,12,0,18,0x1.05e95b2c71baep-5,0x1.a81a83257f3c9p-7,0x0p+0,6,0x1.ed7347670e73ap-6 ms=7,1,96152,320,2,0,0,0x1.8989c8b2d36e2p-4,78568 mres=2,0,0,0,0,0,2,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,6,0x1.ed7347670e73ap-6,0x0p+0,0x0p+0 T=12:ecf8067562d3a96b pa=1,3,0x1.f55b28a4343f4p-7,9,0x1.780d535e04508p-5,3,9,0x1.9a053b021cb15p-2 S=69:c1248ca82aaf717a"},
      {"faults/minibatch_logreg/dense/planner",
       "n=40 h=b847099007546eef it=3 rs=0x1.8d53aa12d5368p-4,0x0p+0,0x1.9cc100e6afccep-2,0x1.4bfe947e60109p-3,12,0,18,0x1.0e6d76501368cp-5,0x1.d579505a9808ap-6,0x0p+0,6,0x1.ed7347670e73ap-6 ms=7,1,492320,320,2,0,0,0x1.4bfe947e60109p-3,342240 mres=2,0,0,0,0,0,2,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,6,0x1.ed7347670e73ap-6,0x0p+0,0x0p+0 T=12:648751a71711c0ea pa=1,3,0x1.0d7b900aec33ep-6,9,0x1.94395810624ddp-5,3,9,0x1.36c93eea682fep-1 S=69:ef9e5bc8e57907d5"},
      {"faults_stream/lr_cg/csr/hardcoded-pass",
       "n=40 h=e438603d76aec783 it=3 rs=0x1.963bcbde0f6a6p-5,0x1.8c3b239646677p+0,0x0p+0,0x1.ed5a23a99a096p+0,1,37,4,0x1.963bcbde0f6a6p-5,0x1.5272048af752ep-2,0x1.963bcbde0f6a6p-3,1,0x1.47e821111cb2fp-8 ms=0,0,0,0,0,0,6,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,0,0,0,0,0,4,4,1,1,0x1.47e821111cb2fp-8,0x0p+0,0x1.963bcbde0f6a6p-3 T=38:8fa46c595a486c5d pa=0,0,0x0p+0,0,0x0p+0,5,3,0x1.befecbf719541p+1 S=136:c3761018842eb95a"},
      {"faults_stream/lr_cg/dense/planner",
       "n=40 h=20637cb4bc8e517c it=3 rs=0x1.836d89a2ec77ep-3,0x1.612cb1d088dabp+1,0x0p+0,0x1.622adf187080ep+2,1,37,4,0x1.836d89a2ec77ep-3,0x1.31fcde25d3e85p-1,0x1.836d89a2ec77ep-1,1,0x1.47e821111cb2fp-8 ms=0,0,0,0,0,0,6,0x0p+0,0 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=4,0,0,0,0,0,4,4,1,1,0x1.47e821111cb2fp-8,0x0p+0,0x1.836d89a2ec77ep-1 T=38:4e5cbe11291bbb10 pa=1,1,0x1.0c8fa210a8358p-5,5,0x1.4fb38a94d242ep-3,5,3,0x1.1bb038d245904p+3 S=136:0fb1a580bb07935c"},
      {"deadline/lr_cg/csr/planner",
       "tripped=1 at_op=9 n=0 h=cbf29ce484222325 it=0 rs=0x1.d4d656d1269eep-7,0x1.d2764d579505ap-7,0x1.d2799a1fd156ap-3,0x1.248e30f76065ep-4,2,7,2,0x1.d4d656d1269eep-7,0x1.0a1454bffd9dep-5,0x0p+0,0,0x0p+0 ms=3,2,127908,640,0,0,0,0x1.248e30f76065ep-4,128548 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:9b6f6d8f5942dbab pa=1,1,0x1.6fb84644e760ep-8,1,0x1.6fb84644e760ep-8,1,1,0x1.31372146127bp-5 S=31:68a18cdfa79fede8"},
      {"deadline/als/dense/unfused",
       "tripped=1 at_op=21 n=0 h=cbf29ce484222325 it=0 rs=0x1.61907f6e5d4c4p-3,0x1.c6e59defdb608p-7,0x1.2f88b9778572ap+0,0x1.1324585d47921p-1,17,4,17,0x0p+0,0x0p+0,0x0p+0,0,0x0p+0 ms=13,5,2064320,80000,0,0,0,0x1.1324585d47921p-1,7216320 mres=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=21:853558cc0896135b pa=0,0,0x0p+0,0,0x0p+0,5,17,0x1.6797713680ea2p+0 S=92:1c893920b5224278"},
      {"deadline_faults/glm/csr/planner",
       "tripped=1 at_op=9 n=0 h=cbf29ce484222325 it=0 rs=0x1.d3f674dd51677p-6,0x1.1d088dac64b6ap-6,0x1.2ef39085f4a12p-2,0x1.9e35f271e998fp-3,4,5,4,0x1.616b9c77e2008p-6,0x1.de67e3b34b07fp-5,0x0p+0,0,0x0p+0 ms=7,4,160548,16960,1,0,0,0x1.9e35f271e998fp-3,161188 mres=2,1,0,0,0,0,2,0,0,0,0x0p+0,0x1.999999999999ap-5,0x1.9f0fb38a94d24p-7 res=0,0,0,0,0,0,0,0,0,0,0x0p+0,0x0p+0,0x0p+0 T=9:82b14cf9b5929a1c pa=1,2,0x1.57c7211ad302p-7,9,0x1.8977f9f4c4926p-5,8,4,0x1.a5d78193d9e5fp-2 S=49:c87b251950133c56"},
  };
  return g;
}

// --- Library scripts --------------------------------------------------------

TEST(RuntimeGolden, EveryLibraryScript) {
  RecorderScope scope;
  const auto& lib = ml::script_library();
  ASSERT_EQ(lib.size(), 54u);
  for (const auto& spec : lib) {
    vgpu::Device dev;
    expect_golden(golden(), spec.name, run_spec(spec, dev).fp);
  }
}

TEST(RuntimeGolden, GpuDisabled) {
  RecorderScope scope;
  for (const auto& spec : ml::script_library()) {
    if (spec.mode != PlanMode::kPlanner) continue;
    vgpu::Device dev;
    sysml::RuntimeOptions opts;
    opts.enable_gpu = false;
    expect_golden(golden(), "no_gpu/" + spec.name,
                  run_spec(spec, dev, opts).fp);
  }
}

// --- Memory pressure --------------------------------------------------------

TEST(RuntimeGolden, DeviceSmallerThanXStreams) {
  RecorderScope scope;
  const Data& d = big_data();
  for (const char* name :
       {"lr_cg/csr/hardcoded-pass", "lr_cg/dense/planner",
        "hits/csr/planner", "glm/dense/hardcoded-pass"}) {
    const auto& spec = script(name);
    vgpu::Device dev;
    sysml::RuntimeOptions opts;
    opts.device_capacity = d.bytes(spec) * 3 / 4;
    const RunResult r = run_spec(spec, dev, opts, [](sysml::Runtime&) {}, d);
    EXPECT_GT(r.memory.streaming_fallbacks, 0u) << name;
    expect_golden(golden(), std::string("stream/") + name, r.fp);
  }
}

TEST(RuntimeGolden, TightDeviceEvicts) {
  RecorderScope scope;
  for (const char* name :
       {"glm/csr/unfused", "als/csr/planner", "kmeans/csr/unfused",
        "svm/dense/planner"}) {
    const auto& spec = script(name);
    vgpu::Device dev;
    sysml::RuntimeOptions opts;
    opts.device_capacity =
        small_data().bytes(spec) + 4 * small_data().y_reg.size() * sizeof(real);
    opts.gpu_cost_bias = 1e-4;  // place every op on the device
    const RunResult r = run_spec(spec, dev, opts);
    EXPECT_GT(r.memory.evictions, 0u) << name;
    expect_golden(golden(), std::string("evict/") + name, r.fp);
  }
}

// --- Faults and silent corruption -------------------------------------------

vgpu::FaultConfig fault_storm() {
  vgpu::FaultConfig fc;
  fc.seed = 0x601DULL;
  fc.kernel_fault_rate = 0.05;
  fc.ecc_fault_rate = 0.03;
  fc.oom_fault_rate = 0.02;
  fc.silent_fault_rate = 0.08;
  fc.transfer_fault_rate = 0.05;
  return fc;
}

void verify_full(sysml::Runtime& rt) {
  rt.set_verify_policy(kernels::VerifyPolicy::kFull);
}

TEST(RuntimeGolden, SeededFaultsUnderFullVerification) {
  RecorderScope scope;
  ResilienceStats total;
  for (const auto& spec : ml::script_library()) {
    if (spec.mode != PlanMode::kPlanner) continue;
    vgpu::FaultInjector inj(fault_storm());
    vgpu::Device dev;
    dev.set_fault_injector(&inj);
    sysml::RuntimeOptions opts;
    opts.gpu_cost_bias = 1e-2;
    const RunResult r = run_spec(spec, dev, opts, verify_full);
    total += r.resilience;
    expect_golden(golden(), "faults/" + spec.name, r.fp);
  }
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.fallbacks, 0u);
  EXPECT_GT(total.sdc_detected, 0u);
}

TEST(RuntimeGolden, SeededFaultsWhileStreaming) {
  // The streamed pattern path under a storm with a high silent rate: its
  // silent-corruption recompute is the one CPU op the streaming branch
  // books.
  RecorderScope scope;
  const Data& d = big_data();
  for (const char* name : {"lr_cg/csr/hardcoded-pass", "lr_cg/dense/planner"}) {
    const auto& spec = script(name);
    vgpu::FaultConfig fc = fault_storm();
    fc.silent_fault_rate = 0.3;
    vgpu::FaultInjector inj(fc);
    vgpu::Device dev;
    dev.set_fault_injector(&inj);
    sysml::RuntimeOptions opts;
    opts.device_capacity = d.bytes(spec) * 3 / 4;
    const RunResult r = run_spec(spec, dev, opts, verify_full, d);
    EXPECT_TRUE(r.traced("pattern (streamed, sdc recompute)")) << name;
    expect_golden(golden(), std::string("faults_stream/") + name, r.fp);
  }
}

// --- Modeled deadline -------------------------------------------------------

/// Runs `name` under a modeled deadline at `fraction` of its clean total and
/// fingerprints the op index it trips at plus everything booked until then.
std::string deadline_run(const std::string& name, double fraction,
                         const vgpu::FaultConfig* faults) {
  const auto& spec = script(name);
  const Data& d = small_data();
  double clean_ms = 0;
  {
    vgpu::Device dev;
    sysml::Runtime rt(dev);
    d.run(spec, rt);
    clean_ms = rt.stats().total_ms();
  }
  std::unique_ptr<vgpu::FaultInjector> inj;
  vgpu::Device dev;
  if (faults != nullptr) {
    inj = std::make_unique<vgpu::FaultInjector>(*faults);
    dev.set_fault_injector(inj.get());
  }
  obs::recorder().clear();
  sysml::Runtime rt(dev);
  rt.set_modeled_deadline(clean_ms * fraction);
  bool tripped = false;
  try {
    d.run(spec, rt);
  } catch (const DeadlineError&) {
    tripped = true;
  }
  EXPECT_TRUE(tripped) << name;
  EXPECT_GT(rt.trace().size(), 0u) << name << " tripped before its first op";
  return "tripped=" + std::to_string(tripped ? 1 : 0) + " at_op=" +
         std::to_string(rt.trace().size()) + " " + fingerprint(rt, {}, 0);
}

TEST(RuntimeGolden, ModeledDeadlineTripsMidScript) {
  RecorderScope scope;
  expect_golden(golden(), "deadline/lr_cg/csr/planner",
                deadline_run("lr_cg/csr/planner", 0.8, nullptr));
  expect_golden(golden(), "deadline/als/dense/unfused",
                deadline_run("als/dense/unfused", 0.4, nullptr));
  const vgpu::FaultConfig storm = fault_storm();
  expect_golden(golden(), "deadline_faults/glm/csr/planner",
                deadline_run("glm/csr/planner", 0.6, &storm));
}

}  // namespace
}  // namespace fusedml
