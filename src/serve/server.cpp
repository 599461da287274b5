#include "serve/server.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ml/script_library.h"
#include "serve/request_trace.h"
#include "sysml/runtime.h"

namespace fusedml::serve {

void ServeStats::print(std::ostream& os) const {
  os << "serve: " << submitted << " submitted, " << resolved()
     << " resolved\n"
     << "  completed " << completed << "  deadline-exceeded "
     << deadline_exceeded << "  failed " << failed << "  cancelled "
     << cancelled << "\n"
     << "  rejected: queue-full " << rejected_queue_full << "  over-capacity "
     << rejected_over_capacity << "  shed " << shed << "\n"
     << "  queue high-water " << queue_high_water << "  modeled busy "
     << modeled_busy_ms << " ms  (server clock " << modeled_now_ms << " ms)\n"
     << "  breakers: opens " << breaker_opens << "  skips " << breaker_skips
     << "\n";
  if (resilience.any()) {
    os << "  faults absorbed " << resilience.faults_seen << "  retries "
       << resilience.retries << "  fallbacks " << resilience.fallbacks
       << " (gpu " << resilience.fallbacks_to_baseline << ", cpu "
       << resilience.fallbacks_to_cpu << ")  overhead "
       << resilience.overhead_ms() << " ms\n";
  }
  if (sdc_detected > 0 || quarantines > 0 || readmissions > 0) {
    os << "  sdc: detected " << sdc_detected << "  rollbacks " << rollbacks
       << "  verify " << resilience.verify_launches << " launches ("
       << resilience.verify_ms << " ms)  quarantines " << quarantines
       << " (re-entries " << quarantine_reentries << ")  readmissions "
       << readmissions << "\n";
  }
}

Server::Server(ServeOptions opts)
    : opts_(opts),
      breakers_(opts.breaker, [this] { return now_ms(); }),
      device_health_(opts.quarantine, opts.workers,
                     [this] { return now_ms(); }),
      pool_(opts_),
      queue_(opts_.queue_capacity),
      flight_(opts_.flight_recorder_capacity,
              opts_.flight_recorder_max_incidents) {
  for (int w = 0; w < pool_.workers(); ++w) {
    pool_.session(w).executor().registry().set_health(&breakers_);
  }
  std::lock_guard lock(faults_mutex_);
  pending_faults_ = opts_.faults;
}

Server::~Server() { drain(); }

DatasetId Server::add_dataset(la::CsrMatrix X) {
  FUSEDML_CHECK(!running(), "add_dataset must precede start()");
  datasets_.push_back(std::move(X));
  return static_cast<DatasetId>(datasets_.size() - 1);
}

const la::CsrMatrix& Server::dataset(DatasetId id) const {
  FUSEDML_CHECK(static_cast<usize>(id) < datasets_.size(), "unknown dataset");
  return datasets_[id];
}

void Server::start() {
  FUSEDML_CHECK(threads_.empty() && !drained_.load(),
                "server already started or drained");
  running_.store(true, std::memory_order_release);
  threads_.reserve(static_cast<usize>(pool_.workers()));
  for (int w = 0; w < pool_.workers(); ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

double Server::now_ms() const {
  return executed_ms_.load(std::memory_order_relaxed) / pool_.workers();
}

void Server::advance_clock(double executed_ms) {
  double cur = executed_ms_.load(std::memory_order_relaxed);
  while (!executed_ms_.compare_exchange_weak(cur, cur + executed_ms,
                                             std::memory_order_relaxed)) {
  }
}

namespace {
ml::Algorithm to_algorithm(ScriptKind kind) {
  switch (kind) {
    case ScriptKind::kLrCg: return ml::Algorithm::kLrCg;
    case ScriptKind::kLogregGd: return ml::Algorithm::kLogregGd;
    case ScriptKind::kGlm: return ml::Algorithm::kGlm;
    case ScriptKind::kSvm: return ml::Algorithm::kSvm;
    case ScriptKind::kHits: return ml::Algorithm::kHits;
    case ScriptKind::kAls: return ml::Algorithm::kAls;
    case ScriptKind::kKmeans: return ml::Algorithm::kKmeans;
    case ScriptKind::kPagerank: return ml::Algorithm::kPagerank;
    case ScriptKind::kMinibatchLogreg:
      return ml::Algorithm::kMinibatchLogreg;
  }
  return ml::Algorithm::kLrCg;
}
}  // namespace

usize Server::estimate_bytes(const ServeRequest& req) const {
  const auto vec = [](usize n) { return n * sizeof(real); };
  if (const auto* p = std::get_if<PatternEval>(&req.work)) {
    const la::CsrMatrix& X = dataset(p->dataset);
    // Inputs plus the intermediate X*y and the output.
    return X.bytes() + vec(p->y.size()) + vec(p->v.size()) +
           vec(p->z.size()) + vec(static_cast<usize>(X.rows())) +
           vec(static_cast<usize>(X.cols()));
  }
  const auto& s = std::get<ScriptEval>(req.work);
  const la::CsrMatrix& X = dataset(s.dataset);
  // Labels plus the solver's working vectors: a handful of length-n
  // iterates (w, p, q, r, trials) and, for the row-space algorithms (glm /
  // svm / hits / logreg / the new workloads), a few length-m intermediates
  // (eta, margins, residuals). ALS additionally holds the transposed
  // ratings and both orientations of the observation mask as matrix
  // leaves; PageRank holds the transposed normalized walk.
  const usize matrix_copies = s.kind == ScriptKind::kAls      ? usize{4}
                              : s.kind == ScriptKind::kPagerank ? usize{2}
                                                                : usize{1};
  return matrix_copies * X.bytes() + vec(s.labels.size()) +
         usize{6} * vec(static_cast<usize>(X.cols())) +
         (s.kind == ScriptKind::kLrCg
              ? usize{0}
              : usize{3} * vec(static_cast<usize>(X.rows())));
}

void Server::reject(const PendingRequest& pending, RejectReason reason,
                    const char* detail) {
  ServeOutcome o;
  o.kind = OutcomeKind::kRejected;
  o.reject_reason = reason;
  o.error = detail;
  pending.state->resolve(std::move(o));
}

void Server::deliver(const PendingRequest& pending, ServeOutcome outcome) {
  pending.state->resolve(std::move(outcome));
}

ServeHandle Server::submit(ServeRequest req) {
  if (req.deadline_ms <= 0.0) req.deadline_ms = opts_.default_deadline_ms;
  auto state = std::make_shared<RequestState>();
  state->set_tag(req.tag);
  state->set_priority(req.priority);
  state->set_deadline(req.deadline_ms);
  state->set_on_resolve(
      [this](const ServeOutcome& o) { count_outcome(o); });
  auto pending = std::make_shared<PendingRequest>();
  pending->request = std::move(req);
  pending->state = state;
  pending->submit_ms = now_ms();
  pending->seq = seq_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.request_tracing) {
    state->set_tracer(std::make_shared<RequestTracer>(
        pending->request.tag, pending->seq, pending->request.priority,
        pending->submit_ms, [this] { return now_ms(); }));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics().enabled()) {
    obs::metrics().counter("serve.submitted").add();
  }
  ServeHandle handle(state);

  if (estimate_bytes(pending->request) > pool_.session_memory_bytes()) {
    reject(*pending, RejectReason::kOverCapacity,
           "modeled working set exceeds a worker session's device memory");
    return handle;
  }
  PendingPtr victim;
  switch (queue_.push(pending, &victim)) {
    case AdmissionQueue::Admit::kAdmitted:
      break;
    case AdmissionQueue::Admit::kAdmittedAfterShed:
      reject(*victim, RejectReason::kShedding,
             "shed from the queue for higher-priority work");
      break;
    case AdmissionQueue::Admit::kRejectedFull:
      reject(*pending, RejectReason::kQueueFull, "admission queue full");
      break;
    case AdmissionQueue::Admit::kClosed:
      reject(*pending, RejectReason::kQueueFull, "server draining");
      break;
  }
  return handle;
}

void Server::inject_faults(const vgpu::FaultConfig& cfg) {
  {
    std::lock_guard lock(faults_mutex_);
    pending_faults_ = cfg;
  }
  fault_generation_.fetch_add(1, std::memory_order_release);
  if (obs::recorder().enabled()) {
    obs::TraceEvent ev;
    ev.name = cfg.armed() ? "fault_storm_armed" : "fault_storm_cleared";
    ev.cat = "serve";
    ev.track = obs::Track::kServe;
    ev.ts_ms = obs::recorder().now_ms();
    obs::recorder().record(std::move(ev));
  }
}

bool Server::requeue(const PendingPtr& p) {
  PendingPtr victim;
  switch (queue_.push(p, &victim)) {
    case AdmissionQueue::Admit::kAdmitted:
      return true;
    case AdmissionQueue::Admit::kAdmittedAfterShed:
      if (victim != nullptr && victim != p) {
        reject(*victim, RejectReason::kShedding,
               "shed from the queue for higher-priority work");
        return true;
      }
      return victim == nullptr;
    case AdmissionQueue::Admit::kRejectedFull:
    case AdmissionQueue::Admit::kClosed:
      return false;
  }
  return false;
}

void Server::worker_loop(int worker_id) {
  WorkerSession& session = pool_.session(worker_id);
  std::uint64_t faults_seen = 0;
  for (;;) {
    PendingPtr p = queue_.pop_blocking();
    if (p == nullptr) break;  // closed and fully drained
    const std::uint64_t gen =
        fault_generation_.load(std::memory_order_acquire);
    if (gen != faults_seen) {
      vgpu::FaultConfig cfg;
      {
        std::lock_guard lock(faults_mutex_);
        cfg = pending_faults_;
      }
      session.apply_faults(cfg);
      faults_seen = gen;
    }
    if (p->state->resolved()) continue;  // cancelled while queued
    RequestTracer* tracer = p->state->tracer().get();
    // Quarantined device: hand the request back so a healthy worker takes
    // it. If the queue refuses (draining), execute here anyway — a suspect
    // answer the checks can still vet beats a lost request.
    if (device_health_.quarantined(worker_id) && requeue(p)) {
      if (tracer != nullptr) tracer->note_requeue("quarantine");
      std::this_thread::yield();
      continue;
    }
    const double wait_ms = std::max(0.0, now_ms() - p->submit_ms);
    if (tracer != nullptr) {
      tracer->note_pickup(worker_id, p->attempts + 1, wait_ms);
    }
    ServeOutcome o;
    if (p->request.deadline_ms > 0.0 && wait_ms >= p->request.deadline_ms) {
      o.kind = OutcomeKind::kDeadlineExceeded;
      o.error = "deadline expired while queued";
      o.queue_wait_ms = wait_ms;
      o.worker = worker_id;
    } else {
      o = execute(session, *p, wait_ms);
      device_health_.report_sdc(worker_id, o.resilience.sdc_detected);
      // Deadline-aware re-admission: a tier-exhausted failure with enough
      // headroom left goes back to the queue for another device instead of
      // surfacing — bounded so a doomed request cannot cycle forever.
      if (o.kind == OutcomeKind::kFailed &&
          p->attempts < opts_.max_readmissions &&
          (p->request.deadline_ms <= 0.0 ||
           now_ms() - p->submit_ms < p->request.deadline_ms)) {
        ++p->attempts;
        if (requeue(p)) {
          readmissions_.fetch_add(1, std::memory_order_relaxed);
          if (tracer != nullptr) tracer->note_requeue("readmission");
          if (obs::metrics().enabled()) {
            obs::metrics().counter("serve.readmissions").add();
          }
          continue;  // outcome intentionally not delivered yet
        }
      }
    }
    deliver(*p, std::move(o));
  }
}

ServeOutcome Server::execute(WorkerSession& session,
                             const PendingRequest& pending, double wait_ms) {
  obs::TraceSpan span("serve:request", "serve", obs::Track::kServe);
  const double deadline = pending.request.deadline_ms;
  const double budget_ms = deadline > 0.0 ? deadline - wait_ms : 0.0;
  const kernels::VerifyPolicy verify = verify_for(pending.request.priority);
  RequestTracer* tracer = pending.state->tracer().get();
  ServeOutcome o =
      std::holds_alternative<PatternEval>(pending.request.work)
          ? run_pattern(session, std::get<PatternEval>(pending.request.work),
                        budget_ms, verify, tracer)
          : run_script(session, std::get<ScriptEval>(pending.request.work),
                       budget_ms, verify, tracer);
  o.worker = session.id();
  o.queue_wait_ms = wait_ms;
  advance_clock(o.modeled_ms);
  // A late answer is no answer: the value is dropped so clients cannot
  // mistake it for a within-deadline result.
  if (o.kind == OutcomeKind::kCompleted && deadline > 0.0 &&
      wait_ms + o.modeled_ms > deadline) {
    o.kind = OutcomeKind::kDeadlineExceeded;
    o.value.clear();
    o.error = "completed past deadline";
  }
  if (span.active()) {
    span.set_name(std::string("serve:") + to_string(o.kind));
    span.arg("priority", to_string(pending.request.priority));
    span.arg("worker", static_cast<double>(session.id()));
    span.cover_modeled_ms(o.modeled_ms);
  }
  return o;
}

kernels::VerifyPolicy Server::verify_for(Priority priority) const {
  switch (priority) {
    case Priority::kInteractive: return opts_.verify_interactive;
    case Priority::kNormal: return opts_.verify_normal;
    case Priority::kBatch: return opts_.verify_batch;
  }
  return kernels::VerifyPolicy::kOff;
}

ServeOutcome Server::run_pattern(WorkerSession& session,
                                 const PatternEval& eval, double budget_ms,
                                 kernels::VerifyPolicy verify,
                                 RequestTracer* tracer) {
  ServeOutcome o;
  auto& ex = session.executor();
  ex.retry_policy() = opts_.retry;
  ex.reset_resilience();
  ex.reset_session_clock();
  ex.set_modeled_deadline(budget_ms);
  ex.registry().set_verify_policy(verify);
  // The session's registry outlives this request — observe for the run only.
  ex.registry().set_dispatch_observer(tracer);
  const la::CsrMatrix& X = dataset(eval.dataset);
  try {
    auto r = ex.pattern(eval.alpha, X, eval.v, eval.y, eval.beta, eval.z);
    o.kind = OutcomeKind::kCompleted;
    o.value = std::move(r.value);
    o.modeled_ms = r.modeled_ms;
    o.backend_used = r.backend_used;
  } catch (const DeadlineError& e) {
    o.kind = OutcomeKind::kDeadlineExceeded;
    o.error = e.what();
    o.modeled_ms = ex.session_modeled_ms();
  } catch (const Error& e) {
    o.kind = OutcomeKind::kFailed;
    o.error = e.what();
    o.modeled_ms = ex.session_modeled_ms();
  }
  o.resilience = ex.resilience();
  ex.set_modeled_deadline(0.0);
  ex.registry().set_dispatch_observer(nullptr);
  return o;
}

ServeOutcome Server::run_script(WorkerSession& session, const ScriptEval& eval,
                                double budget_ms,
                                kernels::VerifyPolicy verify,
                                RequestTracer* tracer) {
  ServeOutcome o;
  const la::CsrMatrix& X = dataset(eval.dataset);
  sysml::RuntimeOptions ro;
  ro.device_capacity = session.memory_bytes();
  sysml::Runtime rt(session.device(), ro);
  rt.retry_policy() = opts_.retry;
  rt.registry().set_health(&breakers_);
  rt.registry().set_dispatch_observer(tracer);
  rt.set_modeled_deadline(budget_ms);
  rt.set_verify_policy(verify);
  std::uint64_t plans_built = 0;
  try {
    const ml::ScriptSpec* spec =
        ml::find_script(to_algorithm(eval.kind), /*dense=*/false, eval.plan);
    FUSEDML_CHECK(spec != nullptr && spec->run_sparse != nullptr,
                  "script library has no entry for this request");
    sysml::ScriptResult r =
        spec->run_sparse(rt, X, eval.labels, eval.iterations);
    plans_built = r.plans_built;
    o.kind = OutcomeKind::kCompleted;
    o.value = std::move(r.weights);
    o.modeled_ms = r.runtime_stats.total_ms();
    o.backend_used = r.runtime_stats.gpu_ops > 0 ? kernels::Backend::kFused
                                                 : kernels::Backend::kCpu;
  } catch (const DeadlineError& e) {
    o.kind = OutcomeKind::kDeadlineExceeded;
    o.error = e.what();
    o.modeled_ms = rt.stats().total_ms();
  } catch (const Error& e) {
    o.kind = OutcomeKind::kFailed;
    o.error = e.what();
    o.modeled_ms = rt.stats().total_ms();
  }
  o.resilience = rt.resilience();
  o.plan_host_ms = rt.stats().plan_host_ms;
  if (tracer != nullptr && o.plan_host_ms > 0.0) {
    tracer->note_plan(o.plan_host_ms, /*cache_hit=*/plans_built == 0);
  }
  return o;
}

void Server::count_outcome(const ServeOutcome& o) {
  switch (o.kind) {
    case OutcomeKind::kCompleted:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case OutcomeKind::kRejected:
      switch (o.reject_reason) {
        case RejectReason::kQueueFull:
          rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
          break;
        case RejectReason::kOverCapacity:
          rejected_over_capacity_.fetch_add(1, std::memory_order_relaxed);
          break;
        case RejectReason::kShedding:
          shed_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
      break;
    case OutcomeKind::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case OutcomeKind::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case OutcomeKind::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (o.worker >= 0) {
    {
      std::lock_guard lock(agg_mutex_);
      resilience_total_ += o.resilience;
    }
    latency_.observe(o.queue_wait_ms + o.modeled_ms);
  }
  slo_.record(o);
  if (opts_.flight_recorder) {
    const FlightRecord rec = FlightRecord::from_outcome(o);
    flight_.record(rec);
    const double now = now_ms();
    if (o.kind == OutcomeKind::kDeadlineExceeded) {
      flight_.fire(AnomalyKind::kDeadlineMiss, rec, now);
    }
    if (o.kind == OutcomeKind::kFailed) {
      flight_.fire(AnomalyKind::kFailure, rec, now);
    }
    if (o.resilience.sdc_detected > 0) {
      flight_.fire(AnomalyKind::kSdcDetected, rec, now);
    }
    // Board-level anomalies surface as deltas of monotonic counters; the
    // resolving request is the closest witness, so it becomes the trigger.
    const std::uint64_t opens = breakers_.total_opens();
    if (opens > last_breaker_opens_.exchange(opens)) {
      flight_.fire(AnomalyKind::kBreakerOpen, rec, now);
    }
    const std::uint64_t quarantines = device_health_.quarantines();
    if (quarantines > last_quarantines_.exchange(quarantines)) {
      flight_.fire(AnomalyKind::kQuarantine, rec, now);
    }
  }
  if (obs::metrics().enabled()) {
    auto& m = obs::metrics();
    m.counter(std::string("serve.") + to_string(o.kind)).add();
    if (o.worker >= 0) {
      m.histogram("serve.latency_ms").observe(o.queue_wait_ms + o.modeled_ms);
    }
  }
}

ServeStats Server::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  if (!drained_.load(std::memory_order_acquire)) {
    queue_.close();
    if (threads_.empty()) {
      // Never started: nobody will pop, so resolve the queued entries here.
      while (PendingPtr p = queue_.pop_blocking()) {
        reject(*p, RejectReason::kQueueFull, "server drained before start");
      }
    } else {
      for (auto& t : threads_) t.join();
      threads_.clear();
    }
    running_.store(false, std::memory_order_release);
    drained_.store(true, std::memory_order_release);
  }
  return stats();
}

ServeStats Server::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_over_capacity =
      rejected_over_capacity_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_.high_water();
  s.modeled_busy_ms = executed_ms_.load(std::memory_order_relaxed);
  s.modeled_now_ms = now_ms();
  {
    std::lock_guard lock(agg_mutex_);
    s.resilience = resilience_total_;
  }
  s.breaker_opens = breakers_.total_opens();
  s.breaker_skips = breakers_.total_skips();
  s.sdc_detected = s.resilience.sdc_detected;
  s.rollbacks = s.resilience.rollbacks;
  s.quarantines = device_health_.quarantines();
  s.quarantine_reentries = device_health_.reentries();
  s.readmissions = readmissions_.load(std::memory_order_relaxed);
  return s;
}

ServerStatus Server::status() const {
  ServerStatus s;
  s.totals = stats();
  for (int c = 0; c < kNumPriorities; ++c) {
    s.classes[c] = slo_.snapshot(static_cast<Priority>(c));
  }
  s.flight_recorded = flight_.recorded();
  s.anomalies_fired = flight_.fires();
  s.incidents_captured =
      static_cast<std::uint64_t>(flight_.incidents().size());
  return s;
}

void Server::write_incident_bundle(std::ostream& os) const {
  // One self-contained document: server-wide context first, then the
  // recorder's frozen incidents. Assembled as two streamed JSON values
  // stitched into one object (both writers emit complete values).
  os << "{\"status\":";
  status().write_json(os);
  os << ",\"incident_bundles\":";
  flight_.write_incidents_json(os);
  os << "}\n";
}

void ServerStatus::print(std::ostream& os) const {
  totals.print(os);
  for (int c = kNumPriorities - 1; c >= 0; --c) {
    const SloClassSnapshot& s = classes[c];
    const auto priority = static_cast<Priority>(c);
    if (s.completed + s.deadline_exceeded + s.failed + s.cancelled +
            s.rejected + s.shed ==
        0) {
      continue;
    }
    os << "  [" << to_string(priority) << "] completed " << s.completed
       << "  deadline-x " << s.deadline_exceeded << "  failed " << s.failed
       << "  cancelled " << s.cancelled << "  rejected " << s.rejected
       << "  shed " << s.shed << "\n"
       << "    latency p50 " << s.p50_ms << "  p95 " << s.p95_ms << "  p99 "
       << s.p99_ms << "  max " << s.max_ms << " ms  (" << s.latency_count
       << " samples)  deadline-hit " << s.deadline_hit_ratio() << "\n"
       << "    buckets: queue " << s.queue_ms << "  exec " << s.exec_ms
       << "  verify " << s.verify_ms << "  resilience " << s.resilience_ms
       << " ms  (plan host " << s.plan_host_ms << " ms)\n";
  }
  if (anomalies_fired > 0) {
    os << "  flight recorder: " << flight_recorded << " recorded, "
       << anomalies_fired << " anomalies (" << incidents_captured
       << " incident bundle(s) captured)\n";
  }
}

void ServerStatus::write_json(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.member("submitted", totals.submitted);
  json.member("resolved", totals.resolved());
  json.member("completed", totals.completed);
  json.member("deadline_exceeded", totals.deadline_exceeded);
  json.member("failed", totals.failed);
  json.member("cancelled", totals.cancelled);
  json.member("rejected_queue_full", totals.rejected_queue_full);
  json.member("rejected_over_capacity", totals.rejected_over_capacity);
  json.member("shed", totals.shed);
  json.member("modeled_now_ms", totals.modeled_now_ms);
  json.member("breaker_opens", totals.breaker_opens);
  json.member("breaker_skips", totals.breaker_skips);
  json.member("sdc_detected", totals.sdc_detected);
  json.member("quarantines", totals.quarantines);
  json.member("readmissions", totals.readmissions);
  json.key("classes").begin_object();
  for (int c = 0; c < kNumPriorities; ++c) {
    const SloClassSnapshot& s = classes[c];
    json.key(to_string(static_cast<Priority>(c))).begin_object();
    json.member("completed", s.completed);
    json.member("deadline_exceeded", s.deadline_exceeded);
    json.member("failed", s.failed);
    json.member("cancelled", s.cancelled);
    json.member("rejected", s.rejected);
    json.member("shed", s.shed);
    json.member("latency_count", s.latency_count);
    json.member("latency_mean_ms", s.latency_mean_ms);
    json.member("p50_ms", s.p50_ms);
    json.member("p95_ms", s.p95_ms);
    json.member("p99_ms", s.p99_ms);
    json.member("max_ms", s.max_ms);
    json.member("deadline_hits", s.deadline_hits);
    json.member("deadline_total", s.deadline_total);
    json.member("deadline_hit_ratio", s.deadline_hit_ratio());
    json.member("queue_ms", s.queue_ms);
    json.member("exec_ms", s.exec_ms);
    json.member("verify_ms", s.verify_ms);
    json.member("resilience_ms", s.resilience_ms);
    json.member("plan_host_ms", s.plan_host_ms);
    json.end_object();
  }
  json.end_object();
  json.key("flight").begin_object();
  json.member("recorded", flight_recorded);
  json.member("anomalies_fired", anomalies_fired);
  json.member("incidents_captured", incidents_captured);
  json.end_object();
  json.end_object();
  os << "\n";
}

}  // namespace fusedml::serve
