#include "sim/parallel_simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/config.h"
#include "sim/simulator.h"

// The parallel engine's two contracts, tested differentially:
//  1. Thread-count invariance: for a fixed config + seed, metrics are
//     bitwise identical at any thread count (the operator== below compares
//     every counter and every floating-point accumulator moment exactly).
//  2. Sequential equivalence: with events_per_epoch = 1 the epoch snapshot
//     is always fresh, so the parallel engine reproduces the sequential
//     Simulator bit-for-bit — at any thread count.
// The suite doubles as the ThreadSanitizer workload for the engine: every
// test drives real multi-threaded epochs (build with -DLBSQ_SANITIZE=thread).

namespace lbsq::sim {
namespace {

SimConfig SmallConfig(QueryType type) {
  SimConfig config;
  config.params = LosAngelesCity();
  config.query_type = type;
  config.world_side_mi = 1.0;
  config.warmup_min = 8.0;
  config.duration_min = 8.0;
  config.seed = 7;
  return config;
}

SimMetrics RunWithThreads(SimConfig config, int threads) {
  config.threads = threads;
  ParallelSimulator sim(config);
  return sim.Run();
}

TEST(ParallelSimTest, ThreadCountInvarianceKnn) {
  const SimConfig config = SmallConfig(QueryType::kKnn);
  const SimMetrics one = RunWithThreads(config, 1);
  EXPECT_GT(one.queries, 50);
  EXPECT_EQ(one, RunWithThreads(config, 2));
  EXPECT_EQ(one, RunWithThreads(config, 8));
}

TEST(ParallelSimTest, ThreadCountInvarianceWindow) {
  const SimConfig config = SmallConfig(QueryType::kWindow);
  const SimMetrics one = RunWithThreads(config, 1);
  EXPECT_GT(one.queries, 50);
  EXPECT_EQ(one, RunWithThreads(config, 2));
  EXPECT_EQ(one, RunWithThreads(config, 8));
}

TEST(ParallelSimTest, ThreadCountInvarianceMixed) {
  const SimConfig config = SmallConfig(QueryType::kMixed);
  const SimMetrics one = RunWithThreads(config, 1);
  EXPECT_GT(one.queries, 50);
  EXPECT_EQ(one, RunWithThreads(config, 2));
  EXPECT_EQ(one, RunWithThreads(config, 8));
}

TEST(ParallelSimTest, ThreadCountInvarianceAcrossEpochSizes) {
  SimConfig config = SmallConfig(QueryType::kMixed);
  for (int epoch : {1, 5, 200}) {
    config.events_per_epoch = epoch;
    EXPECT_EQ(RunWithThreads(config, 1), RunWithThreads(config, 8))
        << "epoch " << epoch;
  }
}

TEST(ParallelSimTest, EpochOneMatchesSequentialEngine) {
  // The parallel engine finds peers on a grid built at the chunk barrier,
  // filtered by exact positions; the sequential engine on a grid current at
  // every event. Multi-hop floods (frontier discs centred on exact
  // positions), street-grid mobility, churn and the paper-geometry speeds
  // each change which hosts the filter keeps and in which order.
  std::vector<SimConfig> configs;
  for (QueryType type :
       {QueryType::kKnn, QueryType::kWindow, QueryType::kMixed}) {
    configs.push_back(SmallConfig(type));
  }
  for (int hops : {2, 3}) {
    configs.push_back(SmallConfig(QueryType::kMixed));
    configs.back().p2p_hops = hops;
  }
  configs.push_back(SmallConfig(QueryType::kMixed));
  configs.back().mobility = MobilityType::kManhattanGrid;
  configs.back().p2p_hops = 2;
  configs.push_back(SmallConfig(QueryType::kMixed));
  configs.back().updates.interval_events = 16;
  configs.push_back(SmallConfig(QueryType::kWindow));
  configs.back().paper_window_geometry = true;
  configs.back().p2p_hops = 2;
  for (size_t i = 0; i < configs.size(); ++i) {
    SimConfig config = configs[i];
    config.events_per_epoch = 1;
    Simulator sequential(config);
    const SimMetrics expected = sequential.Run();
    EXPECT_GT(expected.peers_per_query.mean(), 0.0) << "config " << i;
    EXPECT_EQ(expected, RunWithThreads(config, 1)) << "config " << i;
    EXPECT_EQ(expected, RunWithThreads(config, 4)) << "config " << i;
  }
}

TEST(ParallelSimTest, EpochSizeChangesSemanticsNotValidity) {
  // Larger epochs serve staler peer data — a different (still valid)
  // simulation, not a broken one. The resolved-by breakdown must stay
  // consistent; the exact split may differ from the sequential engine's.
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.events_per_epoch = 64;
  const SimMetrics metrics = RunWithThreads(config, 4);
  EXPECT_GT(metrics.queries, 50);
  EXPECT_EQ(metrics.solved_verified + metrics.solved_approximate +
                metrics.solved_broadcast,
            metrics.queries);
}

TEST(ParallelSimTest, WorkloadsIdenticalAcrossEngines) {
  // Both engines generate the workload from the same counter-based streams,
  // so their traces are interchangeable.
  SimConfig config = SmallConfig(QueryType::kMixed);
  config.record_trace = true;
  Simulator sequential(config);
  sequential.Run();
  config.threads = 4;
  ParallelSimulator parallel(config);
  parallel.Run();
  ASSERT_EQ(sequential.trace().size(), parallel.trace().size());
  for (size_t i = 0; i < sequential.trace().size(); ++i) {
    EXPECT_EQ(sequential.trace()[i], parallel.trace()[i]) << "event " << i;
  }
}

TEST(ParallelSimTest, ReplayReproducesRunExactly) {
  SimConfig config = SmallConfig(QueryType::kMixed);
  config.threads = 4;
  config.record_trace = true;
  ParallelSimulator recorder(config);
  const SimMetrics recorded = recorder.Run();
  ASSERT_GT(recorder.trace().size(), 0u);

  ParallelSimulator replayer(config);
  EXPECT_EQ(recorded, replayer.Replay(recorder.trace()));
}

TEST(ParallelSimTest, CrossEngineReplay) {
  // A trace recorded by the sequential engine replays on the parallel one
  // (and at epoch 1 reproduces the recorded metrics bitwise).
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.events_per_epoch = 1;
  config.record_trace = true;
  Simulator recorder(config);
  const SimMetrics recorded = recorder.Run();

  config.threads = 8;
  ParallelSimulator replayer(config);
  EXPECT_EQ(recorded, replayer.Replay(recorder.trace()));
}

TEST(ParallelSimTest, CacheInvariantHoldsUnderParallelism) {
  // With one writer per cache the completeness invariant (the soundness
  // basis of Lemma 3.1) must survive concurrent epochs.
  SimConfig config = SmallConfig(QueryType::kMixed);
  config.warmup_min = 4.0;
  config.duration_min = 4.0;
  config.check_cache_invariant = true;
  config.check_answers = true;
  const SimMetrics metrics = RunWithThreads(config, 4);
  EXPECT_GT(metrics.queries, 0);
  EXPECT_EQ(metrics.answer_errors, 0);
}

TEST(ParallelSimTest, MoreThreadsThanHostsStillDeterministic) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  // A tiny world: fewer hosts than workers leaves some workers idle.
  config.world_side_mi = 0.5;
  const SimMetrics one = RunWithThreads(config, 1);
  EXPECT_EQ(one, RunWithThreads(config, 16));
}

}  // namespace
}  // namespace lbsq::sim
