#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "util/json_parse.hpp"

namespace mocha::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Trace, NoSessionActiveByDefault) {
  EXPECT_EQ(TraceSession::active(), nullptr);
  EXPECT_FALSE(tracing_active());
  // Scopes with no session are inert.
  { MOCHA_TRACE_SCOPE("idle", "test"); }
}

TEST(Trace, ScopesAndSimEventsAreRecorded) {
  const std::string path = temp_path("trace_events.json");
  {
    TraceSession session(path);
    EXPECT_EQ(TraceSession::active(), &session);
    { MOCHA_TRACE_SCOPE("span_a", "test"); }
    { MOCHA_TRACE_SCOPE("span_b", "test"); }
    session.sim_event("laneX", "task0", "Test", 0, 10);
    session.set_sim_offset(100);
    session.sim_event("laneX", "task1", "Test", 5, 10);
    EXPECT_EQ(session.event_count(), 4u);
  }
  const util::JsonValue doc = util::parse_json(slurp(path));
  const util::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  double task1_ts = -1;
  bool saw_span_a = false;
  for (const util::JsonValue& e : events.array) {
    if (e.at("ph").string != "X") continue;
    if (e.at("name").string == "task1") task1_ts = e.at("ts").number;
    if (e.at("name").string == "span_a") saw_span_a = true;
  }
  EXPECT_EQ(task1_ts, 105.0);  // offset 100 + ts 5
  EXPECT_TRUE(saw_span_a);
  std::remove(path.c_str());
}

// End-to-end: a real accelerator run traced in-process, then the document
// re-parsed and structurally validated — the same checks chrome://tracing
// would need to hold (complete events with pid/tid/ts/dur, and per-lane
// simulated-time events that are monotone and non-overlapping once sorted).
TEST(TraceValidation, AcceleratorRunProducesWellFormedTimeline) {
  const std::string path = temp_path("trace_lenet.json");
  {
    TraceSession session(path);
    const core::Accelerator acc = core::make_mocha_accelerator();
    const core::RunReport report = acc.run(nn::make_lenet5());
    EXPECT_GT(report.total_cycles, 0u);
    EXPECT_GT(session.event_count(), 0u);
  }
  const util::JsonValue doc = util::parse_json(slurp(path));
  const util::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  struct Span {
    double ts = 0;
    double dur = 0;
  };
  std::map<std::pair<int, int>, std::vector<Span>> lanes;
  int meta_events = 0;
  for (const util::JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      ++meta_events;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const int pid = static_cast<int>(e.at("pid").number);
    const int tid = static_cast<int>(e.at("tid").number);
    EXPECT_FALSE(e.at("name").string.empty());
    EXPECT_FALSE(e.at("cat").string.empty());
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    lanes[{pid, tid}].push_back({e.at("ts").number, e.at("dur").number});
  }
  // Process names for both clock domains plus one thread_name per lane.
  EXPECT_GE(meta_events, 2);

  // The simulated domain (pid 1) must exist and every lane must hold
  // non-overlapping tasks: each resource unit executes one task at a time.
  bool saw_sim_lane = false;
  for (auto& [key, spans] : lanes) {
    if (key.first != 1) continue;
    saw_sim_lane = true;
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.ts < b.ts; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].ts, spans[i - 1].ts) << "lane tid " << key.second;
      EXPECT_GE(spans[i].ts, spans[i - 1].ts + spans[i - 1].dur)
          << "overlap on lane tid " << key.second << " at index " << i;
    }
  }
  EXPECT_TRUE(saw_sim_lane);
  std::remove(path.c_str());
}

TEST(Trace, SecondConcurrentSessionIsRejected) {
  const std::string path = temp_path("trace_first.json");
  const std::string path2 = temp_path("trace_second.json");
  {
    TraceSession session(path);
    EXPECT_THROW(TraceSession second(path2), util::CheckFailure);
  }
  EXPECT_EQ(TraceSession::active(), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mocha::obs
