// serve: a ShardRouter with its default mechanisms (replicas, hedging,
// stealing, canaries) over two shards, hosting LeNet-5 and a costlier small
// CNN. Load comes first from one open-loop Poisson generator at a fixed rate
// under capacity, then from a closed loop of clients. A request executes in
// about a millisecond, so admission, routing, hedging and queueing are a
// large share of latency, and the executor runs many small inferences at
// once without codecs: the opposite use from infer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "fabric/config.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "serve/router.hpp"
#include "workloads.hpp"

namespace repobench {

using mocha::nn::Network;
using mocha::nn::ValueTensor;
using mocha::serve::Outcome;
using mocha::util::steady_now_ns;

namespace {

/// Offered load of the open-loop phase, requests per second: under 40% of
/// what the closed loop completes even when the host's CPUs are heavily
/// shared, so nothing is shed.
constexpr double kOpenRate = 200;
/// Share of the run's seconds given to the open loop; the closed loop gets
/// the rest.
constexpr double kOpenShare = 2.0 / 3.0;
/// The open loop gets at least this many requests, so p99 has ten samples
/// beyond it.
constexpr std::int64_t kMinOpenRequests = 1000;
/// Distinct inputs per model; requests draw from them.
constexpr int kInputsPerModel = 32;

Network make_small_cnn() {
  using namespace mocha::nn;
  Network net;
  net.name = "small_cnn";
  net.layers = {
      conv_layer("conv1", 3, 32, 32, 16, 3, 1, 1),
      pool_layer("pool1", 16, 32, 32, 2, 2),
      depthwise_layer("dw2", 16, 16, 16, 3, 1, 1),
      conv_layer("pw2", 16, 16, 16, 32, 1, 1, 0),
      pool_layer("pool2", 32, 16, 16, 2, 2),
      conv_layer("conv3", 32, 8, 8, 32, 3, 1, 1),
      pool_layer("pool3", 32, 8, 8, 2, 2),
      fc_layer("fc4", 32 * 4 * 4, 64),
      fc_layer("fc5", 64, 10, /*relu=*/false),
  };
  net.validate();
  return net;
}

/// One request as the client saw it.
struct Sample {
  int model = 0;
  int input = 0;
  std::uint64_t due_ns = 0;     // open loop: when it was due to be sent
  std::uint64_t submit_ns = 0;  // when submit() was called
  std::uint64_t done_ns = 0;    // when the client saw the terminal outcome
  mocha::serve::Response response;
};

struct Phase {
  std::int64_t attempted = 0, completed = 0, shed = 0, failed = 0;

  void count(const mocha::serve::Response& response) {
    ++attempted;
    if (response.outcome == Outcome::Completed) {
      ++completed;
    } else if (mocha::serve::outcome_is_shed(response.outcome)) {
      ++shed;
    } else {
      ++failed;
    }
  }
  void report(const char* name, Result& result) const {
    std::cerr << name << ": attempted " << attempted << " completed "
              << completed << " shed " << shed << " failed " << failed
              << "\n";
    if (attempted != completed + shed + failed) {
      result.wrong(std::string(name) + ": submitted != completed+shed+failed");
    }
    result.attempted += attempted;
    result.failed += shed + failed;
  }
};

struct Fleet {
  std::vector<Network> nets;
  std::vector<std::vector<ValueTensor>> weights;
  std::vector<std::vector<ValueTensor>> inputs;  // [model][input]

  mocha::serve::Request request(int model, int input) const {
    mocha::serve::Request r;
    r.model = nets[static_cast<std::size_t>(model)].name;
    r.input = inputs[static_cast<std::size_t>(model)]
                    [static_cast<std::size_t>(input)];
    return r;
  }
};

std::unique_ptr<mocha::serve::ShardRouter> start_router(const Fleet& fleet) {
  mocha::serve::RouterOptions options;
  options.shards = 2;
  options.engine.workers = 1;
  auto router = std::make_unique<mocha::serve::ShardRouter>(options);
  for (std::size_t m = 0; m < fleet.nets.size(); ++m) {
    router->register_model(fleet.nets[m].name, fleet.nets[m], fleet.weights[m],
                           mocha::fabric::mocha_default_config());
  }
  // Warm every shard's plan cache with one request per model.
  for (int s = 0; s < router->shard_count(); ++s) {
    for (std::size_t m = 0; m < fleet.nets.size(); ++m) {
      const auto& response = router->shard_engine(s)
                                 .submit(fleet.request(static_cast<int>(m), 0))
                                 ->wait();
      MOCHA_CHECK(response.outcome == Outcome::Completed,
                  "warm-up request failed: " << response.message);
    }
  }
  return router;
}

/// Open loop: Poisson arrivals at kOpenRate, each timed from its due time.
std::vector<Sample> open_loop(mocha::serve::ShardRouter& router,
                              const Fleet& fleet, std::int64_t count,
                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kOpenRate);
  std::uniform_int_distribution<int> model(
      0, static_cast<int>(fleet.nets.size()) - 1);
  std::uniform_int_distribution<int> input(0, kInputsPerModel - 1);
  std::vector<Sample> samples(static_cast<std::size_t>(count));
  // Shared with the completion hooks, which run on the router's threads.
  struct Clock {
    explicit Clock(std::size_t n) : done(n) {}
    std::vector<std::atomic<std::uint64_t>> done;
    std::atomic<std::int64_t> resolved{0};
  };
  const auto clock = std::make_shared<Clock>(samples.size());
  std::vector<mocha::serve::TicketPtr> tickets;
  tickets.reserve(samples.size());
  double offset_s = 0.005;
  const std::uint64_t start = steady_now_ns();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Sample& s = samples[i];
    s.model = model(rng);
    s.input = input(rng);
    offset_s += gap(rng);
    s.due_ns = start + static_cast<std::uint64_t>(offset_s * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(s.due_ns)));
    s.submit_ns = steady_now_ns();
    tickets.push_back(router.submit(fleet.request(s.model, s.input)));
    tickets.back()->on_resolve([clock, i](const auto&) {
      clock->done[i].store(steady_now_ns(), std::memory_order_relaxed);
      clock->resolved.fetch_add(1, std::memory_order_release);
    });
  }
  for (auto& ticket : tickets) ticket->wait();
  while (clock->resolved.load(std::memory_order_acquire) < count) {
    std::this_thread::yield();
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].done_ns = clock->done[i].load(std::memory_order_relaxed);
    samples[i].response = tickets[i]->response();
  }
  return samples;
}

/// Closed loop: `clients` threads, each sending its next request when the
/// previous one completes, until `seconds` have passed.
std::vector<Sample> closed_loop(mocha::serve::ShardRouter& router,
                                const Fleet& fleet, int clients,
                                double seconds, std::uint64_t seed,
                                double* elapsed_s) {
  std::vector<std::vector<Sample>> per_client(
      static_cast<std::size_t>(clients));
  const std::uint64_t start = steady_now_ns();
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::mt19937_64 rng(mix_seed(seed, 0, static_cast<std::uint64_t>(c)));
        std::uniform_int_distribution<int> model(
      0, static_cast<int>(fleet.nets.size()) - 1);
        std::uniform_int_distribution<int> input(0, kInputsPerModel - 1);
        auto& mine = per_client[static_cast<std::size_t>(c)];
        while (steady_now_ns() < end) {
          Sample s;
          s.model = model(rng);
          s.input = input(rng);
          s.submit_ns = steady_now_ns();
          s.response = router.submit(fleet.request(s.model, s.input))->wait();
          s.done_ns = steady_now_ns();
          mine.push_back(std::move(s));
        }
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  *elapsed_s = static_cast<double>(steady_now_ns() - start) / 1e9;
  std::vector<Sample> samples;
  for (auto& mine : per_client) {
    for (Sample& s : mine) samples.push_back(std::move(s));
  }
  return samples;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
/// Milliseconds from `from` to `to` (negative if `to` is earlier).
double ms(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(static_cast<std::int64_t>(to - from)) / 1e6;
}

}  // namespace

std::vector<Network> serve_models() {
  return {mocha::nn::make_lenet5(), make_small_cnn()};
}

Result run_serve(const Options& options, Layers* layers) {
  Result result;
  Fleet fleet;
  fleet.nets = serve_models();
  for (std::size_t m = 0; m < fleet.nets.size(); ++m) {
    fleet.weights.push_back(
        make_weights(fleet.nets[m], mix_seed(kModelSeed, 20, m)));
    fleet.inputs.emplace_back();
    for (int k = 0; k < kInputsPerModel; ++k) {
      fleet.inputs.back().push_back(make_image(
          fleet.nets[m], mix_seed(options.seed, 21, m * kInputsPerModel + k)));
    }
  }
  const mocha::core::Accelerator acc = make_accelerator();

  // Traced: each model's standalone run_functional time under the serving
  // options (no codecs), the base of serve.exec_inflation, plus one call
  // with the executor's layers timed.
  std::vector<double> standalone_ns;
  if (layers != nullptr) {
    mocha::dataflow::FunctionalOptions serving;
    serving.exercise_codecs = false;
    serving.verify_codecs = false;
    for (std::size_t m = 0; m < fleet.nets.size(); ++m) {
      const Network& net = fleet.nets[m];
      const auto plan = acc.plan(net, assumed_stats(net));
      std::vector<double> times;
      double seconds = 0;
      for (int k = 0; k < 64; ++k) {
        run_executor(net, plan, fleet.inputs[m][k % kInputsPerModel],
                     fleet.weights[m], serving, &seconds, result, nullptr);
        times.push_back(seconds * 1e9);
      }
      standalone_ns.push_back(median(times));
      run_executor(net, plan, fleet.inputs[m][0], fleet.weights[m], serving,
                   &seconds, result, layers);
    }
  }

  // Set-up: start the fleet, register both models, warm every shard's plan
  // cache; repeated (the median CPU time is reported), the last fleet serves.
  std::vector<double> setups;
  std::unique_ptr<mocha::serve::ShardRouter> router;
  for (int rep = 0; rep < 3; ++rep) {
    if (router) router->shutdown();
    router.reset();
    const double c0 = cpu_s();
    router = start_router(fleet);
    setups.push_back(cpu_s() - c0);
  }

  const mocha::serve::RouterStats before = router->stats();
  const std::int64_t open_count = std::max<std::int64_t>(
      kMinOpenRequests,
      static_cast<std::int64_t>(kOpenRate * options.seconds * kOpenShare));
  // The open loop's length is set by its arrival schedule, not by how fast
  // the host ran; its CPU time per request includes the fleet's upkeep
  // (canaries, the maintenance tick).
  const double open_c0 = cpu_s();
  const std::vector<Sample> open =
      open_loop(*router, fleet, open_count, mix_seed(options.seed, 22));
  const double open_cpu = cpu_s() - open_c0;
  double closed_s = 0;
  const std::vector<Sample> closed =
      closed_loop(*router, fleet, thread_budget(),
                  options.seconds * (1 - kOpenShare),
                  mix_seed(options.seed, 23), &closed_s);

  const mocha::serve::RouterStats after = router->stats();
  router->shutdown();

  // Accounting: each phase's outcomes, and the router's own counters.
  Phase open_phase, closed_phase;
  for (const Sample& s : open) open_phase.count(s.response);
  for (const Sample& s : closed) closed_phase.count(s.response);
  open_phase.report("open loop", result);
  closed_phase.report("closed loop", result);
  const std::int64_t submitted = after.submitted - before.submitted;
  if (submitted != open_phase.attempted + closed_phase.attempted ||
      submitted != (after.completed - before.completed) +
                       (after.shed - before.shed) +
                       (after.failed - before.failed)) {
    result.wrong("router counters break submitted = completed+shed+failed");
  }

  // Outputs against the oracle, once per distinct input.
  std::vector<std::vector<ValueTensor>> expected(fleet.nets.size());
  for (std::size_t m = 0; m < fleet.nets.size(); ++m) {
    for (const ValueTensor& input : fleet.inputs[m]) {
      auto outputs = oracle::run_network(fleet.nets[m], input, fleet.weights[m],
                                         mocha::nn::Quant{}.frac_shift,
                                         thread_budget());
      const Liveness live = check_liveness(fleet.nets[m], outputs);
      if (!live.problem.empty()) result.wrong(live.problem);
      if (expected[m].empty()) {
        std::cerr << "zero fraction by layer, " << fleet.nets[m].name << ":";
        for (double z : live.zero_fraction) std::cerr << " " << z;
        std::cerr << "\n";
      }
      expected[m].push_back(std::move(outputs.back()));
    }
  }
  for (const auto* phase : {&open, &closed}) {
    for (const Sample& s : *phase) {
      if (s.response.outcome == Outcome::Completed &&
          s.response.output !=
              expected[static_cast<std::size_t>(s.model)]
                      [static_cast<std::size_t>(s.input)]) {
        result.wrong(fleet.nets[static_cast<std::size_t>(s.model)].name +
                     ": served output differs from oracle");
      }
    }
  }

  result.add("setup_s", median(setups), "s");
  result.add("cpu_ms_per_op",
             1e3 * open_cpu / static_cast<double>(open_phase.completed), "ms");

  std::vector<mocha::core::RunReport> reports;
  for (const Network& net : fleet.nets) {
    const Planned planned = plan_and_simulate(acc, net, layers);
    check_plan(acc, net, planned, result, layers);
    reports.push_back(planned.report);
  }
  add_sim_metrics(result, reports);

  if (layers != nullptr) {
    // Open loop: latency from each request's due time, split by the
    // response's own clocks.
    std::vector<double> latency_ms, queue, exec, route, lag, inflation;
    double attempts = 0;
    for (const Sample& s : open) {
      lag.push_back(ms(s.due_ns, s.submit_ns));
      const auto& r = s.response;
      if (r.outcome != Outcome::Completed) continue;
      latency_ms.push_back(ms(s.due_ns, s.done_ns));
      queue.push_back(ms(r.queue_ns));
      exec.push_back(ms(r.latency_ns - r.queue_ns));
      route.push_back(ms(s.submit_ns, s.done_ns) - ms(r.latency_ns));
      inflation.push_back(static_cast<double>(r.latency_ns - r.queue_ns) /
                          standalone_ns[static_cast<std::size_t>(s.model)]);
      attempts += r.attempts - 1;
    }
    for (const Sample& s : closed) {
      attempts += std::max(0, s.response.attempts - 1);
    }
    const double requests =
        static_cast<double>(open_phase.attempted + closed_phase.attempted);
    const double hedges =
        static_cast<double>(after.hedges_issued - before.hedges_issued);
    Layers& l = *layers;
    l["serve.latency_ms_p50"] = median(latency_ms);
    l["serve.latency_ms_p99"] = quantile(latency_ms, 0.99);
    l["serve.rps"] = static_cast<double>(closed_phase.completed) / closed_s;
    l["serve.queue_ms_p50"] = median(queue);
    l["serve.queue_ms_p99"] = quantile(queue, 0.99);
    l["serve.exec_ms_p50"] = median(exec);
    l["serve.route_ms_p99"] = quantile(route, 0.99);
    l["serve.attempts_per_request"] =
        (requests + attempts + hedges +
         static_cast<double>(after.failovers - before.failovers)) /
        requests;
    l["serve.steals"] = static_cast<double>(after.steals - before.steals);
    l["serve.canaries"] = static_cast<double>(after.canaries - before.canaries);
    l["serve.hedges"] = hedges;
    l["serve.hedge_win_ratio"] = ratio(
        static_cast<double>(after.hedge_wins - before.hedge_wins), hedges);
    l["serve.exec_inflation"] = median(inflation);
    l["serve.gen_lag_ms_p99"] = quantile(lag, 0.99);
  }
  return result;
}

}  // namespace repobench
