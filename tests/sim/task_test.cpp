#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mocha::sim {
namespace {

Task make_task(const char* label, Cycle duration = 1) {
  Task t;
  t.label = label;
  t.resources = {0};
  t.duration = duration;
  return t;
}

TEST(TaskGraph, IdsAreDense) {
  TaskGraph graph;
  EXPECT_EQ(graph.add(make_task("a")), 0);
  EXPECT_EQ(graph.add(make_task("b")), 1);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph.task(1).label.str(), "b");
}

TEST(TaskGraph, AddDepLinks) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  graph.add_dep(a, b);
  ASSERT_EQ(graph.task(b).deps.size(), 1u);
  EXPECT_EQ(graph.task(b).deps[0], a);
}

TEST(TaskGraph, ForwardDepAtAddRejected) {
  TaskGraph graph;
  Task t = make_task("a");
  t.deps = {5};  // not yet added
  EXPECT_THROW(graph.add(std::move(t)), util::CheckFailure);
}

TEST(TaskGraph, SelfDepRejected) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  EXPECT_THROW(graph.add_dep(a, a), util::CheckFailure);
}

TEST(TaskGraph, BadTaskIdThrows) {
  TaskGraph graph;
  graph.add(make_task("a"));
  EXPECT_THROW(graph.task(7), util::CheckFailure);
  EXPECT_THROW(graph.task(-1), util::CheckFailure);
}

TEST(TaskGraph, ValidateAcceptsDag) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  const TaskId c = graph.add(make_task("c"));
  graph.add_dep(a, b);
  graph.add_dep(a, c);
  graph.add_dep(b, c);
  EXPECT_NO_THROW(graph.validate());
}

TEST(TaskGraph, ValidateAcceptsDepsOutOfIdOrder) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  const TaskId c = graph.add(make_task("c"));
  graph.add_dep(c, a);  // c runs first: acyclic, but not in id order
  graph.add_dep(a, b);
  EXPECT_NO_THROW(graph.validate());
}

TEST(TaskGraph, ValidateDetectsCycle) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  graph.add_dep(a, b);
  // add_dep only accepts existing ids, so a cycle needs direct mutation —
  // emulating builder bugs.
  graph.task(a).deps.push_back(b);
  EXPECT_THROW(graph.validate(), util::CheckFailure);
}

TEST(TaskGraph, ValidateRequiresResource) {
  TaskGraph graph;
  Task t;
  t.label = "unbound";
  graph.add(std::move(t));
  try {
    graph.validate();
    FAIL() << "unbound task accepted";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("task 'unbound' not bound"),
              std::string::npos)
        << e.what();
  }
}

TEST(TaskGraph, ValidateReturnsDependentsInIdOrder) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  const TaskId c = graph.add(make_task("c"));
  graph.add_dep(a, c);
  graph.add_dep(a, b);
  graph.add_dep(b, c);
  graph.add_dep(b, c);  // a repeated edge stays repeated
  const Dependents dependents = graph.validate();
  const auto of = [&](TaskId id) {
    const auto span = dependents.of(id);
    return std::vector<TaskId>(span.begin(), span.end());
  };
  EXPECT_EQ(of(a), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(of(b), (std::vector<TaskId>{c, c}));
  EXPECT_TRUE(of(c).empty());
}

TEST(TaskLabel, RendersStructuredFields) {
  EXPECT_EQ(TaskLabel().str(), "");
  EXPECT_EQ(TaskLabel("group_end").str(), "group_end");

  TaskLabel comp("comp");
  comp.layer = 3;
  comp.index = {0, 1, TaskLabel::kUnset};
  EXPECT_EQ(comp.str(), "comp.L3.0.1");
  comp.chunk_group = 0;
  comp.chunk_slice = 12;
  EXPECT_EQ(comp.str(), "comp.L3.0.1.g0s12");

  TaskLabel store("store");
  store.layer = 5;
  store.index = {2, 7, 10};
  store.pack = true;
  EXPECT_EQ(store.str(), "store.L5.2.7.10.pack");

  std::ostringstream os;
  os << store;
  EXPECT_EQ(os.str(), store.str());
}

TEST(TaskGraph, EmptyGraphValid) {
  TaskGraph graph;
  EXPECT_NO_THROW(graph.validate());
  EXPECT_TRUE(graph.empty());
}

TEST(TaskKindNames, AllDistinct) {
  EXPECT_STREQ(task_kind_name(TaskKind::DmaLoad), "dma_load");
  EXPECT_STREQ(task_kind_name(TaskKind::DmaStore), "dma_store");
  EXPECT_STREQ(task_kind_name(TaskKind::Decompress), "decompress");
  EXPECT_STREQ(task_kind_name(TaskKind::Compress), "compress");
  EXPECT_STREQ(task_kind_name(TaskKind::Compute), "compute");
  EXPECT_STREQ(task_kind_name(TaskKind::Reconfig), "reconfig");
  EXPECT_STREQ(task_kind_name(TaskKind::Barrier), "barrier");
}

}  // namespace
}  // namespace mocha::sim
