// sim_churn_la: ParallelSimulator::Run over Table-3 LA at world 5 (5,831
// hosts) with a mixed query type, one shard, and light POI churn with equal
// inserts and deletes, so the database size stays stationary and peers
// still resolve a large share of queries.
//
// Each run constructs a fresh simulator (the set-up time) and runs it; runs
// repeat while time remains, and every run must reproduce the first one's
// metrics bit for bit. Per-event latency comes from replaying the run's
// last events, single-threaded, through the public calls the simulator
// makes for one event: advancing every host, updating the peer grid,
// gathering peers, revalidating their regions, executing the query with its
// oracle and on-air baseline, and inserting the result into the cache.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "common/rng.h"
#include "core/peer_cache.h"
#include "core/query_workspace.h"
#include "dynamic/dynamic_engine.h"
#include "dynamic/world_versioner.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/parallel_simulator.h"
#include "sim/query_exec.h"
#include "sim/update_workload.h"
#include "sim/workload.h"
#include "spatial/generators.h"
#include "spatial/grid_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lbsq;

constexpr double kWorldSide = 5.0;
constexpr int kThreads = 4;
constexpr double kWarmupMin = 10.0;
constexpr double kDurationMin = 10.0;
/// One insert, one delete and one move every 256 events: the POI count
/// stays put and about half of the static world's peer sharing survives.
constexpr int kUpdateInterval = 256;
/// Replayed events (p99 needs at least 1000 samples). The replay repeats
/// after every run, and each event's latency is its median over the
/// repeats, so a slow spell on the host moves one repeat, not the run.
constexpr size_t kReplayEvents = 1100;
constexpr int kReplaysPerRun = 2;
/// Extra constructions timed after each run, so the set-up median rests
/// on many samples spread over the whole run.
constexpr int kSetupRepeats = 30;
constexpr int kPublishBatches = 1000;

sim::SimConfig ChurnConfig(uint64_t seed) {
  sim::SimConfig config;
  config.params = sim::LosAngelesCity();
  config.world_side_mi = kWorldSide;
  config.query_type = sim::QueryType::kMixed;
  config.warmup_min = kWarmupMin;
  config.duration_min = kDurationMin;
  config.threads = kThreads;
  config.updates.interval_events = kUpdateInterval;
  config.updates.inserts_per_batch = 1;
  config.updates.deletes_per_batch = 1;
  config.updates.moves_per_batch = 1;
  config.seed = seed;
  return config;
}

struct Replay {
  std::vector<double> event_us;
  double snapshot_us = 0.0;
  double advance_us = 0.0;
  double apply_us = 0.0;
  double gather_us = 0.0;
  double revalidate_us = 0.0;
  double execute_us = 0.0;
  double insert_us = 0.0;
  int64_t checked = 0;
  int64_t wrong = 0;

  double PerEvent(double total) const {
    return total / static_cast<double>(std::max<size_t>(event_us.size(), 1));
  }
  double CoveredPerEvent() const {
    return PerEvent(snapshot_us + advance_us + apply_us + gather_us +
                    revalidate_us + execute_us + insert_us);
  }
};

double Us(int64_t from, int64_t to) {
  return static_cast<double>(to - from) * 1e-3;
}

/// Replays events [begin, end) of the run against the simulator's final
/// state (caches copied, so the simulator is left untouched).
Replay ReplayEvents(const sim::ParallelSimulator& simulator,
                    const sim::SimConfig& config,
                    const std::vector<sim::QueryEvent>& events, size_t begin,
                    size_t end, SpanRecorder* spans) {
  Replay r;
  const geom::Rect& world = simulator.world();
  const std::unique_ptr<sim::MobilityModel> mobility =
      sim::MakeMobilityModel(config, world);
  const int64_t hosts = mobility->num_hosts();
  std::vector<geom::Point> positions(static_cast<size_t>(hosts));
  for (int64_t h = 0; h < hosts; ++h) {
    positions[static_cast<size_t>(h)] =
        mobility->Position(h, events[begin].time_min);
  }
  const double tx = config.params.tx_range_m * sim::kMilesPerMeter;
  spatial::GridIndex index(world,
                           std::max(tx, config.world_side_mi / 256.0));
  index.Rebuild(positions);
  std::vector<core::PeerCache> caches = simulator.caches();
  std::vector<core::PeerData> snapshot(static_cast<size_t>(hosts));
  const dynamic::WorldVersioner& versioner = simulator.versioner();
  const std::shared_ptr<const dynamic::WorldEpoch> epoch = versioner.Current();
  core::QueryWorkspace workspace;
  r.event_us.reserve(end - begin);

  for (size_t i = begin; i < end; ++i) {
    const sim::QueryEvent& event = events[i];
    const uint32_t root = spans->Begin("sim.event", i);
    const int64_t t0 = NowNs();
    if ((i - begin) % static_cast<size_t>(config.events_per_epoch) == 0) {
      for (int64_t h = 0; h < hosts; ++h) {
        snapshot[static_cast<size_t>(h)] =
            caches[static_cast<size_t>(h)].Share();
      }
    }
    const int64_t t1 = NowNs();
    for (int64_t h = 0; h < hosts; ++h) {
      positions[static_cast<size_t>(h)] = mobility->Position(h, event.time_min);
    }
    const int64_t t2 = NowNs();
    index.ApplyMoves(positions);
    const int64_t t3 = NowNs();
    std::vector<core::PeerData> peers;
    sim::GatherPeers(
        index, positions, event.host, tx, config.p2p_hops,
        [&snapshot](int64_t id) { return snapshot[static_cast<size_t>(id)]; },
        &peers);
    const int64_t t4 = NowNs();
    dynamic::RevalidatePeerData(versioner, epoch->id, &peers);
    const int64_t t5 = NowNs();
    const geom::Point pos = positions[static_cast<size_t>(event.host)];
    const int64_t slot = static_cast<int64_t>(
        event.time_min * config.slots_per_second * 60.0);
    core::VerifiedRegion cacheable;
    geom::Point anchor = pos;
    bool exact = true;
    if (event.type == sim::QueryType::kKnn) {
      sim::KnnQueryResult knn = sim::ExecuteKnnQuery(
          config, *epoch->engine, pos, event.k, slot, std::move(peers),
          /*measured=*/true, static_cast<int64_t>(i), nullptr, &workspace);
      exact = knn.exact ||
              knn.outcome.resolved_by == core::ResolvedBy::kPeersApproximate;
      cacheable = std::move(knn.outcome.cacheable);
    } else {
      sim::WindowQueryResult window = sim::ExecuteWindowQuery(
          config, *epoch->engine, event.window, slot, std::move(peers),
          /*measured=*/true, static_cast<int64_t>(i), nullptr, &workspace);
      exact = window.exact;
      anchor = event.window.center();
      cacheable = std::move(window.outcome.cacheable);
    }
    const int64_t t6 = NowNs();
    caches[static_cast<size_t>(event.host)].Insert(
        std::move(cacheable), anchor, pos, mobility->Heading(event.host));
    const int64_t t7 = NowNs();
    spans->Add("sim.cache_snapshot", i, t0, t1, root);
    spans->Add("sim.advance_hosts", i, t1, t2, root);
    spans->Add("spatial.apply_moves", i, t2, t3, root);
    spans->Add("sim.gather_peers", i, t3, t4, root);
    spans->Add("dynamic.revalidate", i, t4, t5, root);
    spans->Add("sim.execute_query", i, t5, t6, root);
    spans->Add("core.cache_insert", i, t6, t7, root);
    spans->End(root);
    r.snapshot_us += Us(t0, t1);
    r.advance_us += Us(t1, t2);
    r.apply_us += Us(t2, t3);
    r.gather_us += Us(t3, t4);
    r.revalidate_us += Us(t4, t5);
    r.execute_us += Us(t5, t6);
    r.insert_us += Us(t6, t7);
    r.event_us.push_back(Us(t0, t7));
    ++r.checked;
    if (!exact) ++r.wrong;
  }
  return r;
}

}  // namespace

void RunSimChurnLa(const RunArgs& args, Report* report) {
  const int64_t run_start = NowNs();
  const sim::SimConfig config = ChurnConfig(args.seed);
  // Leave room for the event replay after the runs.
  const int64_t budget_end =
      run_start + static_cast<int64_t>(args.seconds * 0.8e9);

  const std::vector<sim::QueryEvent> events = sim::GenerateWorkload(
      config, geom::Rect{0.0, 0.0, kWorldSide, kWorldSide});
  const size_t replay_begin =
      events.size() > kReplayEvents ? events.size() - kReplayEvents : 0;
  SpanRecorder off(false, 0);
  std::vector<Replay> replays;
  // Replays run pinned to each CPU in turn: on a shared host one core can
  // run slower than the others for minutes, and a single-threaded replay
  // would measure whichever core it landed on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }

  std::vector<double> setup_s, qps;
  std::unique_ptr<sim::ParallelSimulator> simulator;
  sim::SimMetrics first;
  ProcSample proc0, proc1;
  double last_run_s = 0.0;
  int runs = 0;
  const auto replay_on_next_cpu = [&] {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[replays.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    replays.push_back(ReplayEvents(*simulator, config, events, replay_begin,
                                   events.size(), &off));
    // Restore before the next simulator's threads inherit the affinity.
    if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
    report->Check(replays.back().checked, replays.back().wrong);
  };
  for (;;) {
    simulator.reset();
    const int64_t t0 = NowNs();
    simulator = std::make_unique<sim::ParallelSimulator>(config);
    const int64_t t1 = NowNs();
    proc0 = ProcSample::Now();
    const sim::SimMetrics metrics = simulator->Run();
    const int64_t t2 = NowNs();
    proc1 = ProcSample::Now();
    last_run_s = SecondsBetween(t1, t2);
    setup_s.push_back(SecondsBetween(t0, t1));
    for (int i = 0; i < kSetupRepeats; ++i) {
      const int64_t start = NowNs();
      const sim::ParallelSimulator spare(config);
      setup_s.push_back(SecondsBetween(start, NowNs()));
    }
    qps.push_back(static_cast<double>(metrics.queries) / last_run_s);
    // Every exact-path answer must match the simulator's oracle verdict.
    report->Check(metrics.queries, metrics.answer_errors);
    if (runs == 0) {
      first = metrics;
    } else if (!(metrics == first)) {
      report->Fail("a rerun's metrics differ from the first run's");
    }
    ++runs;
    for (int i = 0; i < kReplaysPerRun; ++i) replay_on_next_cpu();
    if (args.trace ||
        (runs >= 2 &&
         NowNs() + static_cast<int64_t>(last_run_s * 1e9) > budget_end)) {
      break;
    }
  }
  report->set_digest(first.answer_digest);
  report->Note(std::to_string(runs) + " runs of " +
               std::to_string(first.queries) + " measured queries, " +
               std::to_string(first.updates_applied) + " updates in " +
               std::to_string(first.epochs_published) + " epochs");

  std::vector<double> event_us;
  for (size_t e = 0; e < events.size() - replay_begin; ++e) {
    std::vector<double> repeats;
    for (const Replay& r : replays) repeats.push_back(r.event_us[e]);
    event_us.push_back(Median(repeats));
  }
  const LatencySummary latency = Summarize(&event_us);
  const Replay& replay = replays.front();

  const double queries = static_cast<double>(std::max<int64_t>(first.queries, 1));
  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("throughput_qps", Median(qps), "q/s");
    report->Metric("latency_p50_us", latency.p50, "us");
    report->Metric("latency_p99_us", latency.p99, "us");
    report->Metric("access_latency_slots", first.MeanLatencyAllQueries(),
                   "slots");
    report->Metric("tuning_slots",
                   first.broadcast_tuning.mean() *
                       static_cast<double>(first.solved_broadcast) / queries,
                   "slots");
    report->Metric("broadcast_frac",
                   static_cast<double>(first.solved_broadcast) / queries,
                   "ratio");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    return;
  }

  // Traced run: the same events again with spans, then publication.
  SpanRecorder spans(true, 200'000);
  const Replay traced = ReplayEvents(*simulator, config, events, replay_begin,
                                     events.size(), &spans);
  report->Check(traced.checked, traced.wrong);
  report->Metric("sim.cache_snapshot_us", traced.PerEvent(traced.snapshot_us),
                 "us");
  report->Metric("sim.advance_hosts_us", traced.PerEvent(traced.advance_us),
                 "us");
  report->Metric("spatial.apply_moves_us", traced.PerEvent(traced.apply_us),
                 "us");
  report->Metric("sim.gather_peers_us", traced.PerEvent(traced.gather_us),
                 "us");
  report->Metric("dynamic.revalidate_us",
                 traced.PerEvent(traced.revalidate_us), "us");
  report->Metric("sim.execute_query_us", traced.PerEvent(traced.execute_us),
                 "us");
  report->Metric("core.cache_insert_us", traced.PerEvent(traced.insert_us),
                 "us");
  // The same run on one thread: its wall time per event, of which the
  // single-threaded probes cover part. Its metrics must equal the
  // multi-threaded run's bit for bit.
  sim::SimConfig serial = config;
  serial.threads = 1;
  sim::ParallelSimulator serial_sim(serial);
  const int64_t serial_start = NowNs();
  const sim::SimMetrics serial_metrics = serial_sim.Run();
  const double run_us_per_event = static_cast<double>(NowNs() - serial_start) *
                                  1e-3 / static_cast<double>(events.size());
  report->Check(serial_metrics.queries, serial_metrics.answer_errors);
  if (!(serial_metrics == first)) {
    report->Fail("the one-thread run's metrics differ from the "
                 + std::to_string(kThreads) + "-thread run's");
  }
  report->Metric("sim.unattributed_frac",
                 1.0 - traced.CoveredPerEvent() / run_us_per_event, "ratio");
  report->Metric("sim.peers_per_query", first.peers_per_query.mean(), "count");
  report->Metric(
      "dynamic.stale_reject_frac",
      static_cast<double>(first.regions_stale_rejected) /
          static_cast<double>(std::max<int64_t>(
              first.regions_stale_rejected + first.regions_revalidated, 1)),
      "ratio");
  report->ProcMetrics(proc0, proc1, static_cast<double>(events.size()));
  report->Metric("trace.overhead_frac",
                 traced.CoveredPerEvent() / replay.CoveredPerEvent() - 1.0,
                 "ratio");

  // Publication: the run's own update batches, continued, through Apply.
  {
    Rng poi_rng(DeriveStreamSeed(config.seed, sim::kStreamPois));
    std::vector<spatial::Poi> pois = spatial::GenerateUniformPois(
        &poi_rng, simulator->world(), config.ScaledPoiCount());
    const int64_t base_insert_id = sim::FirstInsertId(pois);
    dynamic::WorldVersioner versioner(std::move(pois), simulator->world(),
                                      config.broadcast,
                                      sim::EngineOptionsFromConfig(config));
    std::vector<double> publish_ms;
    for (int k = 1; k <= kPublishBatches; ++k) {
      std::vector<dynamic::PoiUpdate> batch = sim::GenerateUpdateBatch(
          config.updates, config.seed, static_cast<uint64_t>(k),
          versioner.Current()->pois, simulator->world(), base_insert_id);
      const uint32_t span = spans.Begin("dynamic.publish", k);
      const int64_t t0 = NowNs();
      versioner.Apply(std::move(batch));
      publish_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      spans.End(span);
    }
    const LatencySummary publish = Summarize(&publish_ms);
    const dynamic::PublicationStats stats = versioner.publication_stats();
    report->Metric("dynamic.publish_p50_ms", publish.p50, "ms");
    report->Metric("dynamic.publish_p99_ms", publish.p99, "ms");
    report->Metric("dynamic.buckets_patched_per_epoch",
                   static_cast<double>(stats.buckets_patched) /
                       static_cast<double>(
                           std::max<int64_t>(stats.epochs_published, 1)),
                   "count");
  }

  report->Spans({&spans}, args.trace_out);
}

}  // namespace perfbench
