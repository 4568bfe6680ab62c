// Request/response types for the serving runtime.
//
// A Request names a registered model, carries the input tensor, and states
// its service terms: tenant (rate-limit key), priority (admission ranking)
// and deadline. submit() always returns a Ticket and every ticket reaches
// exactly one terminal Outcome — the conservation law the soak test
// enforces (submitted == completed + shed + failed) falls out of that.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "nn/tensor.hpp"
#include "util/parallel.hpp"

namespace mocha::serve {

/// Terminal states of a request. Pending is the only non-terminal value.
enum class Outcome {
  Pending,
  /// Executed; Response::output holds the final layer's tensor.
  Completed,
  /// The deadline passed — while queued, or mid-execution via CancelToken.
  DeadlineExceeded,
  /// The client cancelled via Ticket::cancel().
  Cancelled,
  /// Shed at admission: queue full of equal-or-higher-priority work, or
  /// evicted from the queue by a higher-priority arrival.
  Overloaded,
  /// Shed at admission: the tenant's token bucket was empty.
  RateLimited,
  /// Refused: unknown model, shape mismatch, or the engine is shutting
  /// down. Counted as shed (the runtime never started work on it).
  Rejected,
  /// Execution failed: retry budget exhausted on persistent data damage,
  /// or a non-retryable CheckFailure (a bug, reported in the message).
  Failed,
};

const char* outcome_name(Outcome outcome);

/// Sheds are refusals before execution; failures consumed work. Completed
/// is neither. The three buckets partition every terminal outcome.
bool outcome_is_shed(Outcome outcome);
bool outcome_is_failure(Outcome outcome);

/// Loads per-outcome counters into `stats->by_outcome`, tallies them into
/// its completed / shed / failed buckets, and returns the terminal total.
/// Shared by ServeStats and RouterStats.
template <class Stats>
std::int64_t load_outcomes(const std::atomic<std::int64_t> (&counters)[8],
                           Stats* stats) {
  std::int64_t terminal = 0;
  for (int i = 0; i < 8; ++i) {
    const std::int64_t n = counters[i].load(std::memory_order_relaxed);
    stats->by_outcome[i] = n;
    terminal += n;
    const auto outcome = static_cast<Outcome>(i);
    if (outcome == Outcome::Completed) {
      stats->completed += n;
    } else if (outcome_is_shed(outcome)) {
      stats->shed += n;
    } else if (outcome_is_failure(outcome)) {
      stats->failed += n;
    }
  }
  return terminal;
}

struct Request {
  /// Name the model was registered under.
  std::string model;
  /// Rate-limit key; empty = unmetered.
  std::string tenant;
  /// Admission priority: higher wins; ties serve FIFO.
  int priority = 0;
  /// Absolute steady-clock deadline (util::steady_now_ns domain);
  /// 0 = engine default. Requests past their deadline are never executed.
  std::uint64_t deadline_ns = 0;
  nn::ValueTensor input;
};

struct Response {
  Outcome outcome = Outcome::Pending;
  /// Failure/refusal detail, empty on success.
  std::string message;
  /// Final layer output (Completed only).
  nn::ValueTensor output;
  /// Execution attempts made (0 when the request never ran).
  int attempts = 0;
  /// Corrupted-stream re-fetches absorbed inside successful execution.
  std::int64_t codec_retries = 0;
  /// Served by the circuit breaker's fallback plan.
  bool fallback_plan = false;
  /// Admission -> dequeue.
  std::uint64_t queue_ns = 0;
  /// Admission -> terminal outcome.
  std::uint64_t latency_ns = 0;
};

/// Shared completion handle. The engine resolves it exactly once; clients
/// wait (or poll) and may cancel cooperatively at any point.
class Ticket {
 public:
  /// Blocks until the request reaches a terminal outcome.
  const Response& wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return response_.outcome != Outcome::Pending; });
    return response_;
  }

  /// Current outcome without blocking.
  Outcome outcome() const {
    std::lock_guard<std::mutex> lock(mu_);
    return response_.outcome;
  }

  /// Terminal response; call after wait() (or once outcome() is terminal).
  const Response& response() const {
    std::lock_guard<std::mutex> lock(mu_);
    MOCHA_CHECK(response_.outcome != Outcome::Pending,
                "response read before completion");
    return response_;
  }

  /// Client-side cancellation: fires the token the executor polls. The
  /// terminal outcome becomes Cancelled unless the request already
  /// finished.
  void cancel() { token_.cancel(); }

  /// The cancellation/deadline token execution threads poll.
  util::CancelToken& token() { return token_; }

  /// Registers a completion hook, invoked exactly once with the terminal
  /// response — on the resolver's thread if the ticket is still pending,
  /// or immediately on the caller's if it is already terminal. This is how
  /// the shard router observes attempt completion without a watcher thread
  /// per request (first-wins hedging). One hook per ticket; the hook runs
  /// outside the ticket lock, so it may wait()/cancel() other tickets but
  /// must not re-enter this one's resolution.
  void on_resolve(std::function<void(const Response&)> hook) {
    std::unique_lock<std::mutex> lock(mu_);
    MOCHA_CHECK(!hook_, "ticket already has a completion hook");
    if (response_.outcome != Outcome::Pending) {
      lock.unlock();
      hook(response_);
      return;
    }
    hook_ = std::move(hook);
  }

 private:
  friend class ServeEngine;
  friend class ShardRouter;  // resolves fleet-level client tickets

  /// Resolves the ticket (engine only). Returns false if it was already
  /// terminal — the caller's resolution loses and must not double-count.
  bool resolve(Response&& response) {
    std::function<void(const Response&)> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (response_.outcome != Outcome::Pending) return false;
      response_ = std::move(response);
      hook = std::move(hook_);
      hook_ = nullptr;
      cv_.notify_all();
    }
    // The hook observes a terminal, immutable response; invoked outside the
    // lock so it can touch other tickets without ordering hazards.
    if (hook) hook(response_);
    return true;
  }

  /// Interruptible backoff sleep: waits until `until_ns` or the token
  /// fires, whichever first. Returns true if the token fired.
  bool sleep_until(std::uint64_t until_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!token_.cancelled()) {
      const std::uint64_t now = util::steady_now_ns();
      if (now >= until_ns) return false;
      // Wake periodically to re-poll the token: cancel() does not notify
      // cv_ (the token is lock-free), so cap the wait slice.
      const std::uint64_t slice =
          std::min<std::uint64_t>(until_ns - now, 2'000'000);  // 2 ms
      cv_.wait_for(lock, std::chrono::nanoseconds(slice));
    }
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Response response_;
  std::function<void(const Response&)> hook_;
  util::CancelToken token_;
};

using TicketPtr = std::shared_ptr<Ticket>;

}  // namespace mocha::serve
