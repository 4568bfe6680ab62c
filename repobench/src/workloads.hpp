// The three workloads and the passes they share.
//
// Each workload returns its end-to-end metrics: CPU time of set-up and per
// operation, and the simulated cost of its plans (main.cpp adds peak RSS).
// Given a Layers accumulator (a traced run), it also records per-layer sums
// from spans the benchmark takes around calls into the layers' public
// functions; main.cpp turns the sums into the named per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/accelerator.hpp"
#include "dataflow/executor.hpp"

namespace repobench {

Result run_plan_sim(const Options& options, Layers* layers);
Result run_infer(const Options& options, Layers* layers);
Result run_serve(const Options& options, Layers* layers);

/// MOCHA as every workload runs it: default fabric, EDP objective.
mocha::core::Accelerator make_accelerator();

/// Stream statistics of the default assumed sparsity profile.
std::vector<mocha::dataflow::LayerStreamStats> assumed_stats(
    const mocha::nn::Network& net);

struct Planned {
  mocha::dataflow::NetworkPlan plan;
  mocha::core::RunReport report;
};

/// Plans `net` under assumed sparsity at batch 1 and simulates the plan.
/// With `layers`, MorphController::plan_result and
/// Accelerator::run_with_plan are timed apart and the decision trace is
/// counted.
Planned plan_and_simulate(const mocha::core::Accelerator& acc,
                          const mocha::nn::Network& net, Layers* layers);

/// Replays every group of `planned` through build_group_schedule and
/// sim::Engine::run and checks the properties the model must have: replayed
/// cycles equal reported cycles, peak storage fits the SRAM, cycles cover
/// the DRAM traffic at the bus bandwidth, and energy covers the DRAM
/// traffic at the DRAM energy per byte. Each violation is a wrong output.
void check_plan(const mocha::core::Accelerator& acc,
                const mocha::nn::Network& net, const Planned& planned,
                Result& result, Layers* layers);

/// sim_mcycles, sim_energy_mj and sim_sram_kib over a workload's reports.
void add_sim_metrics(Result& result,
                     const std::vector<mocha::core::RunReport>& reports);

/// Times one run_functional call and returns its result and seconds (and
/// the process CPU seconds it took, if asked). With
/// `layers`, the same layers are then timed through nn::run_layer_ref, and
/// every stream the plan codes is encoded and decoded through
/// make_codec(kind) (a failed round trip is a wrong output).
mocha::dataflow::FunctionalResult run_executor(
    const mocha::nn::Network& net, const mocha::dataflow::NetworkPlan& plan,
    const mocha::nn::ValueTensor& input,
    const std::vector<mocha::nn::ValueTensor>& weights,
    const mocha::dataflow::FunctionalOptions& options, double* seconds,
    Result& result, Layers* layers, double* cpu_seconds = nullptr);

/// Checks every layer of `got` against the oracle on the same input, and
/// that the oracle's activations stay alive. Returns false on a mismatch.
bool check_outputs(const mocha::nn::Network& net,
                   const mocha::nn::ValueTensor& input,
                   const std::vector<mocha::nn::ValueTensor>& weights,
                   const std::vector<mocha::nn::ValueTensor>& got,
                   Result& result);

/// The two models the serve workload hosts: LeNet-5 and a costlier small
/// CNN with a depthwise-separable block.
std::vector<mocha::nn::Network> serve_models();

/// Threads a run may keep busy (nproc, at most 4).
int thread_budget();

}  // namespace repobench
