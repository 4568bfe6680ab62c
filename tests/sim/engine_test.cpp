#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/rng.hpp"

namespace mocha::sim {
namespace {

Task make_task(std::vector<ResourceId> resources, Cycle duration,
               std::vector<TaskId> deps = {}) {
  Task t;
  t.resources = std::move(resources);
  t.duration = duration;
  t.deps = std::move(deps);
  return t;
}

TEST(Engine, SingleTask) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.makespan, 10u);
  EXPECT_EQ(graph.task(0).start, 0u);
  EXPECT_EQ(graph.task(0).finish, 10u);
}

TEST(Engine, DependentTasksSerialize) {
  Engine engine({{"r", 4}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 5));
  graph.add(make_task({0}, 7, {a}));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.makespan, 12u);
}

TEST(Engine, IndependentTasksOverlapAcrossCapacity) {
  Engine engine({{"r", 2}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  graph.add(make_task({0}, 10));
  EXPECT_EQ(engine.run(graph).makespan, 10u);
}

TEST(Engine, CapacityOneSerializes) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  graph.add(make_task({0}, 10));
  EXPECT_EQ(engine.run(graph).makespan, 20u);
}

TEST(Engine, DistinctResourcesOverlap) {
  Engine engine({{"a", 1}, {"b", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  graph.add(make_task({1}, 15));
  EXPECT_EQ(engine.run(graph).makespan, 15u);
}

TEST(Engine, MultiResourceTaskHoldsBoth) {
  // Task 0 holds resources {a, b}; task 1 needs b and must wait.
  Engine engine({{"a", 1}, {"b", 1}});
  TaskGraph graph;
  graph.add(make_task({0, 1}, 10));
  graph.add(make_task({1}, 5));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.makespan, 15u);
  EXPECT_EQ(graph.task(1).start, 10u);
}

TEST(Engine, FifoByTaskIdAmongReady) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, 1));
  graph.add(make_task({0}, 1));
  graph.add(make_task({0}, 1));
  engine.run(graph);
  EXPECT_LT(graph.task(0).start, graph.task(1).start);
  EXPECT_LT(graph.task(1).start, graph.task(2).start);
}

TEST(Engine, DiamondDependency) {
  Engine engine({{"r", 2}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 3));
  const TaskId b = graph.add(make_task({0}, 5, {a}));
  const TaskId c = graph.add(make_task({0}, 7, {a}));
  graph.add(make_task({0}, 2, {b, c}));
  // a:0-3, b:3-8, c:3-10 (parallel), d:10-12.
  EXPECT_EQ(engine.run(graph).makespan, 12u);
}

TEST(Engine, ZeroDurationTasks) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 0));
  graph.add(make_task({0}, 0, {a}));
  EXPECT_EQ(engine.run(graph).makespan, 0u);
}

TEST(Engine, ActionsAccumulate) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  Task t1 = make_task({0}, 4);
  t1.actions.macs = 100;
  t1.actions.dram_read_bytes = 64;
  Task t2 = make_task({0}, 6);
  t2.actions.macs = 50;
  graph.add(std::move(t1));
  graph.add(std::move(t2));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.totals.macs, 150);
  EXPECT_EQ(result.totals.dram_read_bytes, 64);
  EXPECT_EQ(result.totals.cycles, 10);
}

TEST(Engine, SramPeakTracksAllocFree) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  Task alloc1 = make_task({0}, 5);
  alloc1.sram_alloc_bytes = 100;
  const TaskId a = graph.add(std::move(alloc1));
  Task alloc2 = make_task({0}, 5, {a});
  alloc2.sram_alloc_bytes = 50;
  const TaskId b = graph.add(std::move(alloc2));
  Task freer = make_task({0}, 5, {b});
  freer.sram_free_bytes = 150;
  graph.add(std::move(freer));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.peak_sram_bytes, 150);
}

TEST(Engine, SramNegativeBalanceDetected) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  Task t = make_task({0}, 1);
  t.sram_free_bytes = 10;  // frees what was never allocated
  graph.add(std::move(t));
  EXPECT_THROW(engine.run(graph), util::CheckFailure);
}

TEST(Engine, BusyCyclesAndUtilization) {
  Engine engine({{"r", 2}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  graph.add(make_task({0}, 10));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.resource_busy_cycles[0], 20u);
  EXPECT_DOUBLE_EQ(result.utilization(0), 1.0);
}

TEST(Engine, UtilizationBelowOneWhenIdle) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 10));
  Task gap = make_task({0}, 10, {a});
  graph.add(std::move(gap));
  const RunResult result = engine.run(graph);
  EXPECT_DOUBLE_EQ(result.utilization(0), 1.0);  // no idle: back to back
}

TEST(Engine, KindCyclesSplit) {
  Engine engine({{"r", 2}});
  TaskGraph graph;
  Task load = make_task({0}, 7);
  load.kind = TaskKind::DmaLoad;
  Task compute = make_task({0}, 9);
  compute.kind = TaskKind::Compute;
  graph.add(std::move(load));
  graph.add(std::move(compute));
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.kind_cycles.at(TaskKind::DmaLoad), 7u);
  EXPECT_EQ(result.kind_cycles.at(TaskKind::Compute), 9u);
}

TEST(Engine, UnknownResourceRejected) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({3}, 1));
  EXPECT_THROW(engine.run(graph), util::CheckFailure);
}

TEST(Engine, ZeroCapacityResourceRejected) {
  EXPECT_THROW(Engine({{"r", 0}}), util::CheckFailure);
}

TEST(Engine, EmptyGraphRuns) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  const RunResult result = engine.run(graph);
  EXPECT_EQ(result.makespan, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  Engine engine({{"a", 2}, {"b", 1}});
  TaskGraph g1, g2;
  for (TaskGraph* g : {&g1, &g2}) {
    std::vector<TaskId> prev;
    for (int i = 0; i < 50; ++i) {
      Task t = make_task({i % 2 == 0 ? 0 : 1}, static_cast<Cycle>(i % 7 + 1));
      if (!prev.empty() && i % 3 == 0) t.deps = {prev.back()};
      prev.push_back(g->add(std::move(t)));
    }
  }
  const RunResult r1 = engine.run(g1);
  const RunResult r2 = engine.run(g2);
  EXPECT_EQ(r1.makespan, r2.makespan);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1.task(static_cast<TaskId>(i)).start,
              g2.task(static_cast<TaskId>(i)).start);
  }
}

/// Property: makespan is at least the critical path and at most the serial
/// sum, for randomized DAGs.
class EngineBounds : public ::testing::TestWithParam<int> {};

TEST_P(EngineBounds, MakespanWithinBounds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Engine engine({{"a", 2}, {"b", 3}});
  TaskGraph graph;
  std::vector<Cycle> longest_to(100, 0);
  Cycle serial_sum = 0;
  Cycle critical = 0;
  for (int i = 0; i < 100; ++i) {
    Task t = make_task({static_cast<ResourceId>(rng.uniform_int(0, 1))},
                       static_cast<Cycle>(rng.uniform_int(1, 20)));
    Cycle longest_dep = 0;
    if (i > 0) {
      const int deps = static_cast<int>(rng.uniform_int(0, 2));
      for (int d = 0; d < deps; ++d) {
        const auto dep = static_cast<TaskId>(rng.uniform_int(0, i - 1));
        t.deps.push_back(dep);
        longest_dep = std::max(longest_dep,
                               longest_to[static_cast<std::size_t>(dep)]);
      }
    }
    serial_sum += t.duration;
    longest_to[static_cast<std::size_t>(i)] = longest_dep + t.duration;
    critical = std::max(critical, longest_to[static_cast<std::size_t>(i)]);
    graph.add(std::move(t));
  }
  const RunResult result = engine.run(graph);
  EXPECT_GE(result.makespan, critical);
  EXPECT_LE(result.makespan, serial_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineBounds, ::testing::Range(0, 10));

/// The engine's dispatch rule in its plainest form: after every completion
/// instant, scan all ready tasks in id order and start each whose
/// resources all have a free unit, on the lowest free unit of each.
struct ReferenceRun {
  std::vector<Cycle> start, finish;
  std::vector<std::vector<int>> units;
  Cycle makespan = 0;
  std::int64_t peak_sram_bytes = 0;
};

ReferenceRun reference_run(const TaskGraph& graph,
                           const std::vector<ResourceSpec>& specs) {
  const std::size_t n = graph.size();
  ReferenceRun ref;
  ref.start.assign(n, 0);
  ref.finish.assign(n, 0);
  ref.units.assign(n, {});
  std::vector<int> waiting(n, 0);
  std::vector<std::vector<TaskId>> dependents(n);
  std::set<TaskId> ready;
  for (const Task& t : graph.tasks()) {
    waiting[static_cast<std::size_t>(t.id)] = static_cast<int>(t.deps.size());
    for (TaskId dep : t.deps) {
      dependents[static_cast<std::size_t>(dep)].push_back(t.id);
    }
    if (t.deps.empty()) ready.insert(t.id);
  }
  std::vector<std::vector<char>> busy;
  for (const ResourceSpec& r : specs) {
    busy.emplace_back(static_cast<std::size_t>(r.capacity), 0);
  }
  std::multimap<Cycle, TaskId> events;
  Cycle now = 0;
  std::int64_t sram = 0;
  const auto dispatch = [&] {
    for (auto it = ready.begin(); it != ready.end();) {
      const Task& t = graph.task(*it);
      const bool free = std::all_of(
          t.resources.begin(), t.resources.end(), [&](ResourceId r) {
            const auto& units = busy[static_cast<std::size_t>(r)];
            return std::find(units.begin(), units.end(), 0) != units.end();
          });
      if (!free) {
        ++it;
        continue;
      }
      const auto id = static_cast<std::size_t>(t.id);
      for (ResourceId r : t.resources) {
        auto& units = busy[static_cast<std::size_t>(r)];
        const auto unit = std::find(units.begin(), units.end(), 0);
        *unit = 1;
        ref.units[id].push_back(static_cast<int>(unit - units.begin()));
      }
      ref.start[id] = now;
      ref.finish[id] = now + t.duration;
      sram += t.sram_alloc_bytes;
      ref.peak_sram_bytes = std::max(ref.peak_sram_bytes, sram);
      events.emplace(ref.finish[id], t.id);
      it = ready.erase(it);
    }
  };
  dispatch();
  while (!events.empty()) {
    now = events.begin()->first;
    while (!events.empty() && events.begin()->first == now) {
      const Task& t = graph.task(events.begin()->second);
      events.erase(events.begin());
      const auto id = static_cast<std::size_t>(t.id);
      for (std::size_t ri = 0; ri < t.resources.size(); ++ri) {
        busy[static_cast<std::size_t>(t.resources[ri])]
            [static_cast<std::size_t>(ref.units[id][ri])] = 0;
      }
      sram -= t.sram_free_bytes;
      for (TaskId next : dependents[id]) {
        if (--waiting[static_cast<std::size_t>(next)] == 0) ready.insert(next);
      }
    }
    dispatch();
  }
  ref.makespan = now;
  return ref;
}

/// Random DAG whose topological order is a shuffle of the id order, so
/// deps point both ways; tasks hold one or two of three resources.
TaskGraph shuffled_dag(std::uint64_t seed, TaskId tasks) {
  util::Rng rng(seed);
  // rank[i]: task i's position in the topological order.
  std::vector<std::int64_t> rank;
  for (TaskId i = 0; i < tasks; ++i) rank.push_back(i);
  for (std::size_t i = rank.size() - 1; i > 0; --i) {
    std::swap(rank[i], rank[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(i)))]);
  }
  TaskGraph graph;
  for (TaskId i = 0; i < tasks; ++i) {
    Task t = make_task({static_cast<ResourceId>(rng.uniform_int(0, 2))},
                       static_cast<Cycle>(rng.uniform_int(0, 9)));
    if (rng.uniform_int(0, 3) == 0) {
      const auto extra = static_cast<ResourceId>(rng.uniform_int(0, 2));
      if (extra != t.resources[0]) t.resources.push_back(extra);
    }
    t.sram_alloc_bytes = t.sram_free_bytes = rng.uniform_int(0, 100);
    graph.add(std::move(t));
  }
  for (TaskId i = 0; i < tasks; ++i) {
    for (std::int64_t d = rng.uniform_int(0, 2); d > 0; --d) {
      const auto j = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
      if (rank[static_cast<std::size_t>(j)] <
          rank[static_cast<std::size_t>(i)]) {
        graph.add_dep(j, i);
      }
    }
  }
  return graph;
}

class EngineReference : public ::testing::TestWithParam<int> {};

TEST_P(EngineReference, MatchesPlainListScheduler) {
  const std::vector<ResourceSpec> specs = {{"a", 2}, {"b", 1}, {"c", 3}};
  TaskGraph graph = shuffled_dag(static_cast<std::uint64_t>(GetParam()), 300);
  const ReferenceRun ref = reference_run(graph, specs);
  const RunResult result = Engine(specs).run(graph, /*detailed=*/true);
  EXPECT_EQ(result.makespan, ref.makespan);
  EXPECT_EQ(result.peak_sram_bytes, ref.peak_sram_bytes);
  for (const Task& t : graph.tasks()) {
    const auto id = static_cast<std::size_t>(t.id);
    ASSERT_EQ(t.start, ref.start[id]) << "task " << t.id;
    ASSERT_EQ(t.finish, ref.finish[id]) << "task " << t.id;
    ASSERT_EQ(t.units, ref.units[id]) << "task " << t.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineReference, ::testing::Range(0, 10));

}  // namespace
}  // namespace mocha::sim
