// Task graphs: the unit of work the discrete-event engine executes.
//
// A schedule (built in src/dataflow from a LayerPlan) is a DAG of tasks,
// each bound to one hardware resource (DRAM bus, codec engine, PE group,
// ...) with a precomputed duration and an ActionCounts contribution for the
// energy model. Dependencies express the dataflow: a compute tile cannot
// start before its operand transfers (and decompressions) finish.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "model/energy.hpp"
#include "util/assert.hpp"

namespace mocha::sim {

using TaskId = std::int32_t;
using ResourceId = std::int32_t;
using Cycle = std::uint64_t;

inline constexpr TaskId kInvalidTask = -1;

/// A task's name as a fixed-size record, rendered to text only when
/// something reads it (trace, `.dot`, critical-path report, error
/// messages). The planner builds millions of tasks whose names nobody
/// reads, so building the name must cost no more than a few stores.
///
/// str() renders `name`, then `.L<layer>`, then `.<i>` per set index, then
/// `.g<chunk_group>s<chunk_slice>` or `.pack`: "comp.L3.0.1.g0s1",
/// "store.L5.2.pack", "group_end". A name alone (hand-built graphs) renders
/// as itself.
struct TaskLabel {
  static constexpr std::int32_t kUnset = -1;

  /// Static storage only (a string literal): the record does not own it.
  const char* name = "";
  std::int32_t layer = kUnset;
  std::array<std::int32_t, 3> index{kUnset, kUnset, kUnset};
  std::int32_t chunk_group = kUnset;
  std::int32_t chunk_slice = kUnset;
  bool pack = false;

  TaskLabel() = default;
  TaskLabel(const char* static_name) : name(static_name) {}  // NOLINT

  std::string str() const;
};

/// Renders through TaskLabel::str(); for error messages.
std::ostream& operator<<(std::ostream& os, const TaskLabel& label);

enum class TaskKind {
  DmaLoad,     // DRAM -> scratchpad
  DmaStore,    // scratchpad -> DRAM
  Decompress,  // scratchpad coded -> PE-side raw
  Compress,    // PE-side raw -> scratchpad coded
  Compute,     // MAC work on a PE group
  Reconfig,    // fabric context switch between layer plans
  Barrier,     // zero-cost synchronization / buffer-release point
};

const char* task_kind_name(TaskKind kind);

struct Task {
  TaskId id = kInvalidTask;
  TaskKind kind = TaskKind::Compute;
  TaskLabel label;
  /// Resources this task occupies for its whole duration, acquired
  /// atomically at dispatch. Most tasks hold one; a compute task streaming
  /// compressed operands holds its PE group *and* a codec engine.
  std::vector<ResourceId> resources;
  Cycle duration = 0;
  std::vector<TaskId> deps;

  /// Energy-relevant event counts this task contributes when it completes.
  model::ActionCounts actions;

  /// Scratchpad bytes reserved when this task starts / released when it
  /// finishes. A load allocates its destination buffer; the last consumer
  /// of a buffer carries the matching free.
  std::int64_t sram_alloc_bytes = 0;
  std::int64_t sram_free_bytes = 0;

  // Filled in by the engine.
  Cycle start = 0;
  Cycle finish = 0;
  /// Which unit of each bound resource the task occupied (index-aligned
  /// with `resources`; lowest free unit wins, deterministically). Gives the
  /// tracer one exclusive lane per resource unit.
  std::vector<int> units;
};

/// Reverse dependence edges in compressed form: the tasks that list `id`
/// among their deps, in ascending id order (a task listing a dep twice
/// appears twice).
struct Dependents {
  std::vector<std::size_t> offsets;  // size() + 1 entries
  std::vector<TaskId> ids;

  std::span<const TaskId> of(TaskId id) const {
    const auto at = static_cast<std::size_t>(id);
    return {ids.data() + offsets[at], offsets[at + 1] - offsets[at]};
  }
};

/// Growable DAG with cycle detection. Task ids are dense indices.
class TaskGraph {
 public:
  /// Adds a task; returns its id. Dependencies may be added later.
  TaskId add(Task task);

  /// Declares that `after` cannot start before `before` finishes.
  void add_dep(TaskId before, TaskId after);

  Task& task(TaskId id) {
    MOCHA_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size(),
                "bad task id " << id);
    return tasks_[static_cast<std::size_t>(id)];
  }
  const Task& task(TaskId id) const {
    MOCHA_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size(),
                "bad task id " << id);
    return tasks_[static_cast<std::size_t>(id)];
  }

  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  std::vector<Task>& tasks() { return tasks_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Throws util::CheckFailure if the dependency relation has a cycle or
  /// references out-of-range ids. Called by the engine before running;
  /// returns the dependents adjacency it checked, which the engine reuses.
  Dependents validate() const;

  /// The dependents adjacency of a graph whose deps are in range.
  Dependents dependents() const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace mocha::sim
