#include "baseline/baselines.hpp"

#include <gtest/gtest.h>

namespace mocha::baseline {
namespace {

TEST(Baseline, StrategyNames) {
  EXPECT_STREQ(strategy_name(Strategy::TilingOnly), "tiling");
  EXPECT_STREQ(strategy_name(Strategy::MergeOnly), "merge");
  EXPECT_STREQ(strategy_name(Strategy::ParallelOnly), "parallel");
}

TEST(Baseline, SubstrateHasNoMochaHardware) {
  for (Strategy strategy : kAllStrategies) {
    const core::Accelerator acc = make_baseline_accelerator(strategy);
    EXPECT_FALSE(acc.config().has_compression);
    EXPECT_FALSE(acc.config().has_morph_controller);
    EXPECT_EQ(acc.config().codec_units, 0);
  }
}

TEST(Baseline, SharedSubstrateMatchesMocha) {
  const auto mocha = fabric::mocha_default_config();
  for (Strategy strategy : kAllStrategies) {
    const core::Accelerator acc = make_baseline_accelerator(strategy);
    const auto& config = acc.config();
    EXPECT_EQ(config.pe_rows, mocha.pe_rows);
    EXPECT_EQ(config.pe_cols, mocha.pe_cols);
    EXPECT_EQ(config.sram_bytes, mocha.sram_bytes);
    EXPECT_EQ(config.dram_bytes_per_cycle, mocha.dram_bytes_per_cycle);
    EXPECT_DOUBLE_EQ(config.clock_ghz, mocha.clock_ghz);
  }
}

TEST(Baseline, TilingOnlyNeverFusesOrSplits) {
  const core::Accelerator acc =
      make_baseline_accelerator(Strategy::TilingOnly);
  const nn::Network net = nn::make_alexnet();
  const auto stats =
      core::assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  for (const auto& group : plan.fusion_groups()) {
    EXPECT_EQ(group.size(), 1u);
  }
  for (const auto& lp : plan.layers) {
    EXPECT_EQ(lp.total_groups(), 1);
    EXPECT_EQ(lp.ifmap_codec, compress::CodecKind::None);
  }
}

TEST(Baseline, MergeOnlyFusesSomewhere) {
  // A fusion-friendly workload: early layers with few channels, where the
  // whole pyramid fits the scratchpad and merging saves the intermediate
  // map's DRAM round trip outright.
  const core::Accelerator acc = make_baseline_accelerator(Strategy::MergeOnly);
  const nn::Network net = nn::make_lenet5();
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  bool any_fused = false;
  for (const auto& group : plan.fusion_groups()) {
    any_fused |= group.size() > 1;
  }
  EXPECT_TRUE(any_fused) << "merge baseline never merged a layer";
}

TEST(Baseline, ParallelOnlySplitsGroups) {
  const core::Accelerator acc =
      make_baseline_accelerator(Strategy::ParallelOnly);
  const nn::Network net = nn::make_alexnet();
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  for (const auto& lp : plan.layers) {
    EXPECT_GT(lp.total_groups(), 1) << lp.summary();
  }
}

TEST(Baseline, AllStrategiesRunAlexnetWithinSram) {
  for (Strategy strategy : kAllStrategies) {
    const core::Accelerator acc = make_baseline_accelerator(strategy);
    const core::RunReport report = acc.run(nn::make_alexnet());
    EXPECT_TRUE(report.sram_ok) << strategy_name(strategy);
    EXPECT_GT(report.throughput_gops(), 0.0);
  }
}

TEST(Baseline, NextBestPicksBestObjective) {
  const nn::Network net = nn::make_alexnet();
  const NextBest best =
      next_best(net, model::default_tech(), core::Objective::Cycles);
  for (Strategy strategy : kAllStrategies) {
    const core::Accelerator acc = make_baseline_accelerator(
        strategy, model::default_tech(), core::Objective::Cycles);
    const core::RunReport report = acc.run(net);
    EXPECT_LE(best.report.total_cycles, report.total_cycles)
        << strategy_name(strategy);
  }
}

TEST(Baseline, NextBestReportIsPopulated) {
  const NextBest best = next_best(nn::make_lenet5());
  EXPECT_GT(best.report.total_cycles, 0u);
  EXPECT_FALSE(best.report.groups.empty());
}

}  // namespace
}  // namespace mocha::baseline
