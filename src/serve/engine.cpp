#include "serve/engine.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "compress/codec.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mocha::serve {
namespace {

// SplitMix64 finalizer: decorrelates (request id, attempt) into a fault
// seed, so a retried attempt draws *different* injected flips — retrying
// the identical seed would fail identically forever.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// A failed attempt's class: Cancelled expires the group, Retryable
/// (persistent data damage) backs off and re-executes, a CheckFailure (a
/// bug) or anything unexpected fails the request.
enum class AttemptError {
  None,
  Cancelled,
  Retryable,
  NonRetryable,
  Unexpected,
};

AttemptError classify(const std::exception& e) {
  if (dynamic_cast<const util::Cancelled*>(&e) != nullptr) {
    return AttemptError::Cancelled;
  }
  if (dynamic_cast<const compress::DecodeError*>(&e) != nullptr) {
    return AttemptError::Retryable;
  }
  if (dynamic_cast<const CheckFailure*>(&e) != nullptr) {
    return AttemptError::NonRetryable;
  }
  return AttemptError::Unexpected;
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::Pending:
      return "pending";
    case Outcome::Completed:
      return "completed";
    case Outcome::DeadlineExceeded:
      return "deadline_exceeded";
    case Outcome::Cancelled:
      return "cancelled";
    case Outcome::Overloaded:
      return "overloaded";
    case Outcome::RateLimited:
      return "rate_limited";
    case Outcome::Rejected:
      return "rejected";
    case Outcome::Failed:
      return "failed";
  }
  return "?";
}

bool outcome_is_shed(Outcome outcome) {
  return outcome == Outcome::Overloaded || outcome == Outcome::RateLimited ||
         outcome == Outcome::Rejected;
}

bool outcome_is_failure(Outcome outcome) {
  return outcome == Outcome::DeadlineExceeded ||
         outcome == Outcome::Cancelled || outcome == Outcome::Failed;
}

ServeEngine::ServeEngine(ServeOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity,
             obs::lane_name("serve", options_.metrics_scope, "queue_depth")) {
  const auto lane = [&](const char* name) {
    return obs::lane_name("serve", options_.metrics_scope, name);
  };
  lanes_.submitted = lane("submitted");
  lanes_.rate_limited = lane("rate_limited");
  lanes_.shed_overload = lane("shed_overload");
  lanes_.plan_cache_hits = lane("plan_cache_hits");
  lanes_.plans_built = lane("plans_built");
  lanes_.queue_wait_us = lane("queue_wait_us");
  lanes_.exec_latency_us = lane("exec_latency_us");
  lanes_.fallback_completions = lane("fallback_completions");
  lanes_.retries = lane("retries");
  lanes_.retryable_failures = lane("retryable_failures");
  lanes_.completed = lane("completed");
  lanes_.shed = lane("shed");
  lanes_.failed = lane("failed");
  lanes_.latency_us = lane("latency_us");
  lanes_.batches = lane("batches");
  lanes_.batch_coalesced = lane("batch_coalesced");
  lanes_.exec_stalls = lane("exec_stalls");
  lanes_.steals_out = lane("steals_out");
  lanes_.steals_in = lane("steals_in");
  lanes_.breaker_prefix = lane("breaker_state.");

  MOCHA_CHECK(options_.workers >= 1, "serve engine needs >= 1 worker");
  MOCHA_CHECK(options_.max_batch >= 1, "max_batch must be >= 1");
  MOCHA_CHECK(options_.retry.max_attempts >= 1,
              "retry.max_attempts must be >= 1");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServeEngine::~ServeEngine() { shutdown(/*drain=*/false); }

void ServeEngine::register_model(const std::string& name, nn::Network net,
                                 std::vector<nn::ValueTensor> weights,
                                 fabric::FabricConfig config,
                                 core::MorphOptions morph) {
  MOCHA_CHECK(!name.empty(), "model name must be non-empty");
  MOCHA_CHECK(!net.layers.empty(), "model " << name << " has no layers");
  MOCHA_CHECK(weights.size() == net.layers.size(),
              "model " << name << ": " << weights.size() << " weight tensors"
                       << " for " << net.layers.size() << " layers");
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    MOCHA_CHECK(weights[i].shape() == net.layers[i].weight_shape(),
                "model " << name << " layer " << net.layers[i].name
                         << ": weight shape mismatch");
  }
  config.validate();

  auto model = std::make_unique<Model>();
  model->name = name;
  model->net = std::move(net);
  model->weights = std::move(weights);
  model->base_config = config;
  model->morph = std::move(morph);
  // Plan against the assumed sparsity profile: serving has no profiling
  // pass to measure real stream statistics.
  model->stats = core::assumed_stats(model->net, nn::SparsityProfile{});
  model->breaker = std::make_unique<CircuitBreaker>(options_.breaker);

  std::lock_guard<std::mutex> lock(models_mu_);
  MOCHA_CHECK(models_.find(name) == models_.end(),
              "model " << name << " already registered");
  models_.emplace(name, std::move(model));
}

void ServeEngine::set_fault_scenario(const fault::FaultModel& faults) {
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    for (const auto& [name, model] : models_) {
      faults.validate(model->base_config);
    }
  }
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_ = faults;
  have_faults_ = true;
}

void ServeEngine::clear_fault_scenario() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_ = fault::FaultModel{};
  have_faults_ = false;
}

ServeEngine::Model* ServeEngine::find_model(const std::string& name) {
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

TicketPtr ServeEngine::submit(Request request) {
  auto ticket = std::make_shared<Ticket>();
  const std::uint64_t now = util::steady_now_ns();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  MOCHA_METRIC_ADD(lanes_.submitted, 1);

  auto refuse = [&](Outcome outcome, std::string message) {
    Response resp;
    resp.outcome = outcome;
    resp.message = std::move(message);
    QueuedRequest item;
    item.request = std::move(request);
    item.ticket = ticket;
    item.admitted_ns = now;
    item.id = id;
    finish(item, std::move(resp));
    return ticket;
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    return refuse(Outcome::Rejected, "engine is shutting down");
  }

  Model* model = find_model(request.model);
  if (model == nullptr) {
    return refuse(Outcome::Rejected, "unknown model: " + request.model);
  }
  const nn::LayerSpec& head = model->net.layers.front();
  const bool shape_ok =
      request.input.shape() == head.input_shape() ||
      (head.kind == nn::LayerKind::FullyConnected &&
       request.input.size() == head.ifmap_elems());
  if (!shape_ok) {
    return refuse(Outcome::Rejected,
                  "input shape mismatch for model " + request.model);
  }

  if (options_.tenant_rate_per_sec > 0 && !request.tenant.empty()) {
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(tenants_mu_);
      auto [it, inserted] = tenants_.try_emplace(
          request.tenant, options_.tenant_rate_per_sec, options_.tenant_burst);
      admitted = it->second.try_acquire(now);
    }
    if (!admitted) {
      MOCHA_METRIC_ADD(lanes_.rate_limited, 1);
      return refuse(Outcome::RateLimited,
                    "tenant " + request.tenant + " over rate");
    }
  }

  // Arm the deadline before queueing so time spent queued counts against it.
  std::uint64_t deadline = request.deadline_ns;
  if (deadline == 0 && options_.default_deadline_ms > 0) {
    deadline = now + options_.default_deadline_ms * 1'000'000ull;
  }
  if (deadline != 0) ticket->token().set_deadline_ns(deadline);

  QueuedRequest item;
  item.request = std::move(request);
  item.ticket = ticket;
  item.admitted_ns = now;
  item.id = id;

  QueuedRequest evicted;
  const AdmissionQueue::Admit admit = queue_.push(std::move(item), &evicted);
  switch (admit) {
    case AdmissionQueue::Admit::Queued:
      break;
    case AdmissionQueue::Admit::QueuedEvicted: {
      Response resp;
      resp.outcome = Outcome::Overloaded;
      resp.message = "displaced by higher-priority arrival";
      MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
      finish(evicted, std::move(resp));
      break;
    }
    case AdmissionQueue::Admit::Rejected: {
      MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
      Response resp;
      resp.outcome = Outcome::Overloaded;
      resp.message = "admission queue full";
      // push() moved nothing on rejection only because it never touched the
      // multiset; the item we built still owns the ticket.
      QueuedRequest rejected;
      rejected.ticket = ticket;
      rejected.admitted_ns = now;
      rejected.id = id;
      finish(rejected, std::move(resp));
      break;
    }
  }
  return ticket;
}

std::shared_ptr<const dataflow::NetworkPlan> ServeEngine::plan_for(
    Model& model, bool primary) {
  std::string scenario;
  fault::FaultModel faults;
  bool have_faults = false;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    have_faults = have_faults_;
    if (have_faults_) {
      faults = faults_;
      scenario = faults_.summary(model.base_config);
    } else {
      scenario = "healthy";
    }
  }
  const std::string key =
      model.name + "|" + scenario + (primary ? "|primary" : "|fallback");

  std::lock_guard<std::mutex> lock(plans_mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    MOCHA_METRIC_ADD(lanes_.plan_cache_hits, 1);
    return it->second;
  }

  // Cold plan: search under the *surviving* fabric. Holding plans_mu_
  // serializes concurrent cold lookups of the same key (the search itself
  // fans out on the global pool); warm lookups only block for the map probe.
  MOCHA_TRACE_SCOPE("serve.plan", "serve");
  MOCHA_METRIC_ADD(lanes_.plans_built, 1);
  const fabric::FabricConfig config =
      have_faults ? fault::degraded_config(model.base_config, faults)
                  : model.base_config;
  core::MorphOptions morph = model.morph;
  morph.force_fallback = morph.force_fallback || !primary;
  const core::MorphController controller(options_.tech, morph);
  core::PlanResult result =
      controller.plan_result(model.net, config, model.stats, 1);
  auto plan =
      std::make_shared<const dataflow::NetworkPlan>(std::move(result.plan));
  plans_.emplace(key, plan);
  return plan;
}

bool ServeEngine::has_plan(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  std::string scenario;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    scenario = have_faults_ ? faults_.summary(m->base_config) : "healthy";
  }
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.count(model + "|" + scenario + "|primary") != 0;
}

void ServeEngine::publish_breaker_gauge(Model& model) {
  const BreakerState state = model.breaker->state(util::steady_now_ns());
  MOCHA_METRIC_GAUGE(lanes_.breaker_prefix + model.name,
                     static_cast<std::int64_t>(state));
}

void ServeEngine::worker_loop() {
  for (;;) {
    std::vector<QueuedRequest> batch =
        queue_.pop_batch(static_cast<std::size_t>(options_.max_batch));
    if (batch.empty()) return;  // closed and drained
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      for (const QueuedRequest& item : batch) {
        inflight_.insert(item.ticket.get());
      }
    }
    process(std::move(batch));
  }
}

void ServeEngine::process(std::vector<QueuedRequest> items) {
  MOCHA_TRACE_SCOPE("serve.request", "serve");
  struct Entry {
    QueuedRequest item;
    Response resp;
  };
  using Group = std::vector<Entry>;
  const auto expire = [&](Entry& e, std::string where) {
    e.resp.outcome = e.item.ticket->token().cancel_requested()
                         ? Outcome::Cancelled
                         : Outcome::DeadlineExceeded;
    e.resp.message = std::move(where);
    finish(e.item, std::move(e.resp));
  };
  const auto fail = [&](Entry& e, Outcome outcome, std::string message) {
    e.resp.outcome = outcome;
    e.resp.message = std::move(message);
    finish(e.item, std::move(e.resp));
  };

  // Dequeue bookkeeping, once per item. pop_batch coalesces one model, so
  // every live item shares `model`.
  const std::uint64_t dequeued = util::steady_now_ns();
  Model* model = nullptr;
  Group live;
  live.reserve(items.size());
  for (QueuedRequest& item : items) {
    Entry e{std::move(item), Response{}};
    e.resp.queue_ns = dequeued - e.item.admitted_ns;
    MOCHA_METRIC_HIST(lanes_.queue_wait_us,
                      static_cast<std::int64_t>(e.resp.queue_ns / 1000));
    if (e.item.ticket->token().cancelled()) {
      expire(e, "expired while queued");
      continue;
    }
    model = find_model(e.item.request.model);
    if (model == nullptr) {  // unregistered between submit and dequeue
      fail(e, Outcome::Rejected, "unknown model: " + e.item.request.model);
      continue;
    }
    live.push_back(std::move(e));
  }

  std::deque<Group> groups;
  const auto split = [&](Group& group) {
    for (Entry& e : group) {
      groups.emplace_back();
      groups.back().push_back(std::move(e));
    }
  };
  if (!live.empty()) groups.push_back(std::move(live));

  while (!groups.empty()) {
    Group group = std::move(groups.front());
    groups.pop_front();
    // Only singletons retry, so the backoff jitter follows the front id:
    // every request's backoff sequence is reproducible from its id.
    constexpr std::uint64_t kJitterSeed = 0x5eed;
    util::Rng jitter(mix_seed(kJitterSeed, group.front().item.id));

    for (int attempt = 1;; ++attempt) {
      double flip_rate = 0;
      std::int64_t stall_ms = 0;
      {
        std::lock_guard<std::mutex> lock(fault_mu_);
        flip_rate = have_faults_ ? faults_.codec_bit_flip_rate : 0;
        stall_ms = have_faults_ ? faults_.exec_stall_ms : 0;
      }
      // Split rule: one executor pass serves every item identically only
      // without transient faults — injected flips need per-attempt seeds
      // wired into per-request retry, and injected stalls are per-ticket.
      if (group.size() > 1 && (flip_rate > 0 || stall_ms > 0)) {
        split(group);
        break;
      }

      const std::uint64_t start = util::steady_now_ns();
      const bool primary = model->breaker->allow_primary(start);
      std::vector<dataflow::BatchOutput> outs;
      AttemptError error = AttemptError::None;
      std::string what;
      try {
        std::shared_ptr<const dataflow::NetworkPlan> plan =
            plan_for(*model, primary);

        dataflow::FunctionalOptions exec;
        exec.quant = options_.quant;
        exec.codec_retry_budget = options_.codec_retry_budget;
        exec.codec_flip_rate = flip_rate;
        // Serving computes outputs; it does not need coded-size measurement.
        // Codecs are exercised only when flips are being injected (the
        // framed integrity path is what detects them).
        exec.exercise_codecs = flip_rate > 0;
        exec.verify_codecs = false;

        if (stall_ms > 0) {
          // Injected latency degradation (fault::FaultModel::exec_stall_ms):
          // the attempt slows down but stays deadline-aware — the stall is
          // interruptible, and a fired token takes the same Cancelled path
          // as any mid-execution expiry. The split rule makes this a
          // singleton.
          MOCHA_METRIC_ADD(lanes_.exec_stalls, 1);
          const std::uint64_t stall_ns =
              static_cast<std::uint64_t>(stall_ms) * 1'000'000ull;
          if (group.front().item.ticket->sleep_until(start + stall_ns)) {
            throw util::Cancelled("injected execution stall interrupted");
          }
        }

        std::vector<dataflow::BatchInput> inputs(group.size());
        for (std::size_t i = 0; i < group.size(); ++i) {
          inputs[i].input = &group[i].item.request.input;
          inputs[i].cancel = &group[i].item.ticket->token();
          inputs[i].codec_fault_seed =
              mix_seed(group[i].item.id, static_cast<std::uint64_t>(attempt));
        }
        MOCHA_TRACE_SCOPE("serve.execute", "serve");
        outs = dataflow::run_functional_batch(model->net, *plan, inputs,
                                              model->weights, exec);
      } catch (const std::exception& e) {
        error = classify(e);
        what = e.what();
      }
      const std::uint64_t end = util::steady_now_ns();
      for (Entry& e : group) e.resp.attempts = attempt;

      // Breaker, once per attempt. A run that completed nothing (every
      // token fired) is no evidence either way. A failure counts even when
      // it is a bug: the fallback plan is the right answer to a plan that
      // cannot execute.
      if (primary) {
        const bool completed =
            error == AttemptError::None &&
            std::any_of(outs.begin(), outs.end(),
                        [](const dataflow::BatchOutput& o) {
                          return !o.cancelled;
                        });
        if (completed) {
          model->breaker->record_primary_success(end, end - start);
        } else if (error == AttemptError::None ||
                   error == AttemptError::Cancelled) {
          model->breaker->abandon_primary();
        } else {
          model->breaker->record_primary_failure(end);
        }
        publish_breaker_gauge(*model);
      }

      const char* cancelled_where =
          attempt > 1 ? "cancelled during retry" : "cancelled mid-execution";
      if (error == AttemptError::None) {
        if (group.size() > 1) {
          batches_.fetch_add(1, std::memory_order_relaxed);
          batch_coalesced_.fetch_add(static_cast<std::int64_t>(group.size()),
                                     std::memory_order_relaxed);
          MOCHA_METRIC_ADD(lanes_.batches, 1);
          MOCHA_METRIC_ADD(lanes_.batch_coalesced,
                           static_cast<std::int64_t>(group.size()));
        }
        for (std::size_t i = 0; i < group.size(); ++i) {
          Entry& e = group[i];
          if (outs[i].cancelled) {
            expire(e, cancelled_where);
            continue;
          }
          e.resp.outcome = Outcome::Completed;
          e.resp.output = std::move(outs[i].result.outputs.back());
          e.resp.codec_retries += outs[i].result.codec_retries;
          e.resp.fallback_plan = !primary;
          if (!primary) {
            fallback_completions_.fetch_add(1, std::memory_order_relaxed);
            MOCHA_METRIC_ADD(lanes_.fallback_completions, 1);
          }
          MOCHA_METRIC_HIST(lanes_.exec_latency_us,
                            static_cast<std::int64_t>((end - start) / 1000));
          finish(e.item, std::move(e.resp));
        }
        break;
      }
      if (error == AttemptError::Cancelled) {
        for (Entry& e : group) expire(e, cancelled_where);
        break;
      }
      if (group.size() > 1) {
        // Failed at batch granularity with nothing finished yet: each item
        // re-runs as a singleton and books its own breaker/retry outcome.
        split(group);
        break;
      }

      Entry& e = group.front();
      if (error != AttemptError::Retryable) {
        fail(e, Outcome::Failed,
             (error == AttemptError::NonRetryable ? "non-retryable: "
                                                  : "unexpected: ") +
                 what);
        break;
      }
      // Retryable: persistent data damage past the executor's own re-fetch
      // budget. Back off and re-execute with a fresh fault seed — unless
      // attempts or the deadline run out.
      MOCHA_METRIC_ADD(lanes_.retryable_failures, 1);
      if (attempt >= options_.retry.max_attempts) {
        fail(e, Outcome::Failed, "retry budget exhausted: " + what);
        break;
      }
      const std::uint64_t wait =
          retry_backoff_ns(options_.retry, attempt, jitter);
      const std::uint64_t now = util::steady_now_ns();
      const std::uint64_t deadline = e.item.ticket->token().deadline_ns();
      if (deadline != 0 && now + wait >= deadline) {
        fail(e, Outcome::DeadlineExceeded,
             "no deadline budget left for retry backoff");
        break;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      MOCHA_METRIC_ADD(lanes_.retries, 1);
      if (e.item.ticket->sleep_until(now + wait)) {
        expire(e, "cancelled during retry backoff");
        break;
      }
    }
  }
}

std::size_t ServeEngine::transfer_to(ServeEngine& dst, std::size_t max) {
  MOCHA_CHECK(&dst != this, "transfer_to: source and destination identical");
  std::vector<QueuedRequest> taken = queue_.steal_back(max);
  std::size_t moved = 0;
  for (QueuedRequest& item : taken) {
    // Count the arrival before the handoff: once try_append succeeds a dst
    // worker may finish the request instantly, and stolen_in must already
    // cover it or dst's conservation identity would transiently fail.
    dst.stolen_in_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD(dst.lanes_.steals_in, 1);
    if (dst.queue_.try_append(item)) {
      stolen_out_.fetch_add(1, std::memory_order_relaxed);
      MOCHA_METRIC_ADD(lanes_.steals_out, 1);
      ++moved;
      continue;
    }
    // Bounced: dst filled up (or closed) mid-transfer. Book the bounce as a
    // dst departure — both counters stay monotone and net to zero — and put
    // the entry back home.
    dst.stolen_out_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD(dst.lanes_.steals_out, 1);
    if (queue_.try_append(item)) continue;
    // Home refilled (or closed) too: shed. The ticket still reaches exactly
    // one terminal outcome, booked here where it was submitted.
    Response resp;
    resp.outcome = Outcome::Overloaded;
    resp.message = "displaced during work stealing";
    MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
    finish(item, std::move(resp));
  }
  return moved;
}

void ServeEngine::finish(const QueuedRequest& item, Response&& response) {
  const Outcome outcome = response.outcome;
  MOCHA_CHECK(outcome != Outcome::Pending, "finish with Pending outcome");
  response.latency_ns = util::steady_now_ns() - item.admitted_ns;
  const std::uint64_t latency_ns = response.latency_ns;

  const bool resolved = item.ticket->resolve(std::move(response));
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(item.ticket.get());
  }
  if (!resolved) return;  // lost the race to another resolver; don't count

  by_outcome_[static_cast<int>(outcome)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (outcome == Outcome::Completed) {
    MOCHA_METRIC_ADD(lanes_.completed, 1);
    MOCHA_METRIC_HIST(lanes_.latency_us,
                      static_cast<std::int64_t>(latency_ns / 1000));
  } else if (outcome_is_shed(outcome)) {
    MOCHA_METRIC_ADD(lanes_.shed, 1);
  } else {
    MOCHA_METRIC_ADD(lanes_.failed, 1);
  }
}

void ServeEngine::shutdown(bool drain) {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);

  if (!drain) {
    // Refuse everything still queued and interrupt what is executing.
    for (QueuedRequest& item : queue_.drain()) {
      item.ticket->token().cancel();
      Response resp;
      resp.outcome = Outcome::Cancelled;
      resp.message = "engine shutdown";
      finish(item, std::move(resp));
    }
    std::lock_guard<std::mutex> inflight_lock(inflight_mu_);
    for (Ticket* ticket : inflight_) ticket->token().cancel();
  }

  // close() wakes the workers; with drain they finish the queue first
  // (pop() keeps returning queued work after close until empty).
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  shut_down_.store(true, std::memory_order_release);
}

ServeStats ServeEngine::stats() const {
  ServeStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  const std::int64_t terminal = load_outcomes(by_outcome_, &out);
  out.stolen_in = stolen_in_.load(std::memory_order_relaxed);
  out.stolen_out = stolen_out_.load(std::memory_order_relaxed);
  out.in_flight = out.submitted + out.stolen_in - out.stolen_out - terminal;
  out.retries = retries_.load(std::memory_order_relaxed);
  out.fallback_completions =
      fallback_completions_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.batch_coalesced = batch_coalesced_.load(std::memory_order_relaxed);
  return out;
}

BreakerState ServeEngine::breaker_state(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->state(util::steady_now_ns());
}

std::int64_t ServeEngine::breaker_trips(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->trips();
}

std::int64_t ServeEngine::breaker_recoveries(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->recoveries();
}

}  // namespace mocha::serve
