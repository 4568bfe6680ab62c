// Resilience policies for the serving runtime: retry backoff, per-tenant
// rate limiting, and the per-model circuit breaker.
//
// Each policy is a small, standalone state machine that takes the current
// steady-clock time as an argument instead of reading a clock — so the unit
// tests drive them with a manual clock and every transition is asserted
// deterministically. ServeEngine is the only caller that feeds them real
// time (util::steady_now_ns()).
#pragma once

#include <cstdint>
#include <mutex>

#include "util/rng.hpp"

namespace mocha::serve {

/// Retry-with-backoff policy for *retryable* execution failures (transient
/// codec damage surfacing as compress::DecodeError). Non-retryable failures
/// — CheckFailure, i.e. bugs — never reach this policy.
struct RetryOptions {
  /// Total execution attempts per request (1 = no retry).
  int max_attempts = 3;
  /// Exponential backoff: attempt k (0-based failure count) waits up to
  /// base * 2^k ms, capped. Full jitter — the actual wait is uniform in
  /// [0, capped) — decorrelates retry storms.
  std::uint64_t backoff_base_ms = 2;
  std::uint64_t backoff_cap_ms = 64;
};

/// The wait before retry number `failures` (1-based count of failures so
/// far), in nanoseconds: full jitter over the capped exponential window.
/// Deterministic given the rng state.
std::uint64_t retry_backoff_ns(const RetryOptions& options, int failures,
                               util::Rng& rng);

/// Token-bucket rate limiter: capacity `burst`, refilled at `rate_per_sec`.
/// Not internally locked — the engine's admission path already serializes
/// per-tenant access; unit tests drive it single-threaded.
class TokenBucket {
 public:
  /// rate_per_sec <= 0 disables metering (try_acquire always succeeds).
  TokenBucket(double rate_per_sec, double burst);

  /// Takes one token at steady time `now_ns`; false = caller is over rate.
  bool try_acquire(std::uint64_t now_ns);

  double tokens() const { return tokens_; }

 private:
  double rate_ = 0;
  double burst_ = 1;
  double tokens_ = 1;
  std::uint64_t last_ns_ = 0;
};

enum class BreakerState { Closed, Open, HalfOpen };
const char* breaker_state_name(BreakerState state);

struct BreakerOptions {
  /// Consecutive primary-plan execution failures that trip the breaker.
  int failure_threshold = 3;
  /// Latency SLO for completed requests; 0 disables latency tripping.
  std::uint64_t latency_slo_ms = 0;
  /// Consecutive over-SLO completions that trip the breaker.
  int slo_violation_threshold = 5;
  /// Open -> HalfOpen after this long (then one probe runs the primary
  /// plan; everyone else stays on the fallback until the probe reports).
  std::uint64_t cooldown_ms = 250;
};

/// Per-model circuit breaker over the *plan*, not the requests: tripping
/// does not reject traffic, it flips the model onto the planner's degraded
/// fallback plan (core::minimal_fallback_plan via force_fallback — no
/// codecs, minimal footprint) until a half-open probe proves the primary
/// plan healthy again. Thread-safe; workers feed it outcomes concurrently.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  /// True when the caller should execute on the primary plan: breaker
  /// Closed, or this call claimed the single half-open probe slot. False —
  /// use the fallback plan. Transitions Open -> HalfOpen when the cooldown
  /// has elapsed at `now_ns`.
  bool allow_primary(std::uint64_t now_ns);

  /// Reports one finished attempt that ran the *primary* plan. Fallback
  /// results never touch the state machine: the fallback plan is the safe
  /// harbor, its health says nothing about the primary's.
  void record_primary_success(std::uint64_t now_ns, std::uint64_t latency_ns);
  void record_primary_failure(std::uint64_t now_ns);

  /// A primary attempt ended with no verdict on the plan's health (client
  /// cancel, deadline). In HalfOpen this frees the probe slot so the next
  /// request can probe — without it an abandoned probe would wedge the
  /// breaker half-open forever. No-op otherwise.
  void abandon_primary();

  BreakerState state(std::uint64_t now_ns);

  /// Lifetime Closed->Open transitions / HalfOpen->Closed recoveries.
  std::int64_t trips() const;
  std::int64_t recoveries() const;

 private:
  void trip_locked(std::uint64_t now_ns);

  BreakerOptions options_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  int consecutive_slo_violations_ = 0;
  std::uint64_t opened_ns_ = 0;
  bool probe_in_flight_ = false;
  std::int64_t trips_ = 0;
  std::int64_t recoveries_ = 0;
};

}  // namespace mocha::serve
