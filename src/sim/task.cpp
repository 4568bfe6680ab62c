#include "sim/task.hpp"

#include <ostream>

namespace mocha::sim {

std::string TaskLabel::str() const {
  std::string out = name;
  if (layer != kUnset) out += ".L" + std::to_string(layer);
  for (std::int32_t i : index) {
    if (i != kUnset) out += "." + std::to_string(i);
  }
  if (chunk_group != kUnset) {
    out += ".g" + std::to_string(chunk_group) + "s" +
           std::to_string(chunk_slice);
  }
  if (pack) out += ".pack";
  return out;
}

std::ostream& operator<<(std::ostream& os, const TaskLabel& label) {
  return os << label.str();
}

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::DmaLoad:
      return "dma_load";
    case TaskKind::DmaStore:
      return "dma_store";
    case TaskKind::Decompress:
      return "decompress";
    case TaskKind::Compress:
      return "compress";
    case TaskKind::Compute:
      return "compute";
    case TaskKind::Reconfig:
      return "reconfig";
    case TaskKind::Barrier:
      return "barrier";
  }
  MOCHA_UNREACHABLE("bad TaskKind");
}

TaskId TaskGraph::add(Task task) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  for (TaskId dep : task.deps) {
    MOCHA_CHECK(dep >= 0 && dep < id,
                "task '" << task.label << "' depends on not-yet-added task "
                         << dep);
  }
  tasks_.push_back(std::move(task));
  return id;
}

void TaskGraph::add_dep(TaskId before, TaskId after) {
  MOCHA_CHECK(before >= 0 && static_cast<std::size_t>(before) < tasks_.size(),
              "bad dep source " << before);
  MOCHA_CHECK(after >= 0 && static_cast<std::size_t>(after) < tasks_.size(),
              "bad dep target " << after);
  MOCHA_CHECK(before != after, "self-dependency on task " << before);
  tasks_[static_cast<std::size_t>(after)].deps.push_back(before);
}

Dependents TaskGraph::dependents() const {
  Dependents out;
  out.offsets.assign(tasks_.size() + 1, 0);
  for (const Task& t : tasks_) {
    for (TaskId dep : t.deps) ++out.offsets[static_cast<std::size_t>(dep) + 1];
  }
  // Counts to offsets, then fill in task order so each list is ascending.
  for (std::size_t i = 1; i < out.offsets.size(); ++i) {
    out.offsets[i] += out.offsets[i - 1];
  }
  out.ids.resize(out.offsets.back());
  std::vector<std::size_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (const Task& t : tasks_) {
    for (TaskId dep : t.deps) {
      out.ids[fill[static_cast<std::size_t>(dep)]++] = t.id;
    }
  }
  return out;
}

Dependents TaskGraph::validate() const {
  // Builders add a task after everything it waits on, so id order is
  // usually a topological order and the cycle search can be skipped.
  bool deps_precede = true;
  for (const Task& t : tasks_) {
    for (TaskId dep : t.deps) {
      MOCHA_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < tasks_.size(),
                  "task '" << t.label << "' has out-of-range dep " << dep);
      deps_precede = deps_precede && dep < t.id;
    }
    MOCHA_CHECK(!t.resources.empty(),
                "task '" << t.label << "' not bound to any resource");
    for (ResourceId r : t.resources) {
      MOCHA_CHECK(r >= 0, "task '" << t.label << "' has negative resource");
    }
  }
  Dependents dependents = this->dependents();
  if (deps_precede) return dependents;

  // Kahn's algorithm; anything left unprocessed is on a cycle.
  std::vector<int> indegree(tasks_.size(), 0);
  std::vector<TaskId> frontier;
  for (const Task& t : tasks_) {
    indegree[static_cast<std::size_t>(t.id)] = static_cast<int>(t.deps.size());
    if (t.deps.empty()) frontier.push_back(t.id);
  }
  std::size_t processed = 0;
  while (!frontier.empty()) {
    const TaskId id = frontier.back();
    frontier.pop_back();
    ++processed;
    for (TaskId next : dependents.of(id)) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        frontier.push_back(next);
      }
    }
  }
  MOCHA_CHECK(processed == tasks_.size(),
              "task graph has a cycle (" << tasks_.size() - processed
                                         << " tasks unreachable)");
  return dependents;
}

}  // namespace mocha::sim
