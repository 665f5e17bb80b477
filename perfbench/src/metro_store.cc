// metro_store: a 1M-POI metro dataset on 8 Hilbert shards, cold-opened from
// a file store and queried by a closed loop of in-process
// ShardedQueryEngine::Execute calls.
//
// PrepareMetro runs in its own, untimed process: it generates the dataset,
// writes the store, and writes the request pool (70% kNN k=5, 30% windows
// of 0.05% of the world, ~30% of requests carrying a peer's verified
// region) with brute-force oracle answers for a sample of it. The measured
// process opens the store several times (the set-up time), answers the pool
// once to record its digest and check the oracle sample, then runs the
// closed loop on a fixed number of threads, each with its own workspace.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "common/rng.h"
#include "core/sharded_query_engine.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "spatial/generators.h"
#include "spatial/poi.h"
#include "storage/storage_manager.h"
#include "storage/system_builder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lbsq;

constexpr double kWorldSide = 40.0;
constexpr int64_t kPois = 1'000'000;
constexpr double kClusteredFraction = 0.6;  // lbsq_metro_gen's defaults
constexpr int kClusters = 80;
constexpr double kClusterSpread = 0.5;
constexpr int kHilbertOrder = 9;
constexpr int kShards = 8;
constexpr int kK = 5;
/// The requests: one per cell of a kGrid x kGrid grid over the world, at a
/// seeded position in the cell, so every run samples the whole metro area
/// evenly and the seed moves the mix little.
constexpr int kGrid = 64;
constexpr size_t kPoolSize = static_cast<size_t>(kGrid) * kGrid;
constexpr double kKnnFraction = 0.7;
constexpr double kWindowFraction = 0.0005;  // 0.05% of the world's area
constexpr double kPeerFraction = 0.3;
/// A peer's verified region holds at most a cache's worth (Table 3 CSize).
constexpr size_t kPeerRegionMaxPois = 50;
constexpr size_t kOracleEvery = 32;
constexpr size_t kRequestsPerCycle = 256;
constexpr int kThreads = 4;
constexpr int kOpenRepeats = 3;
/// The dataset is lbsq_metro_gen's default one (its seed 1) on every run;
/// --seed picks the requests.
constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kStreamMetroQueries = 102;
constexpr uint32_t kAbsent = 0xFFFFFFFFu;

geom::Rect World() { return geom::Rect{0.0, 0.0, kWorldSide, kWorldSide}; }

storage::SystemBuilder MetroBuilder() {
  broadcast::BroadcastParams params;
  params.hilbert_order = kHilbertOrder;
  core::EngineOptions options;
  options.sbnn.k = kK;
  // Every answer exact, so every sampled answer is oracle-checkable.
  options.sbnn.accept_approximate = false;
  storage::SystemBuilder builder(World(), params);
  builder.SetOptions(options).SetShards(kShards).SetDatasetTag(kDatasetSeed);
  return builder;
}

/// Flat binary records of the request pool.
class PoolWriter {
 public:
  explicit PoolWriter(const std::string& path)
      : f_(std::fopen(path.c_str(), "wb")) {}
  ~PoolWriter() {
    if (f_ != nullptr) std::fclose(f_);
  }
  PoolWriter(const PoolWriter&) = delete;
  PoolWriter& operator=(const PoolWriter&) = delete;
  template <typename T>
  void Put(const T& value) {
    ok_ = ok_ && f_ != nullptr && std::fwrite(&value, sizeof(T), 1, f_) == 1;
  }
  bool Finish() {
    const bool closed = f_ != nullptr && std::fclose(f_) == 0;
    f_ = nullptr;
    return ok_ && closed;
  }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

class PoolReader {
 public:
  explicit PoolReader(const std::string& path)
      : f_(std::fopen(path.c_str(), "rb")) {}
  ~PoolReader() {
    if (f_ != nullptr) std::fclose(f_);
  }
  PoolReader(const PoolReader&) = delete;
  PoolReader& operator=(const PoolReader&) = delete;
  template <typename T>
  T Get() {
    T value{};
    ok_ = ok_ && f_ != nullptr && std::fread(&value, sizeof(T), 1, f_) == 1;
    return value;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

/// POI indices bucketed on a uniform grid, for cutting peer regions.
class PoiGrid {
 public:
  PoiGrid(const std::vector<spatial::Poi>& pois, double cell)
      : pois_(pois), cell_(cell),
        side_(static_cast<int>(std::ceil(kWorldSide / cell))),
        start_(static_cast<size_t>(side_) * side_ + 1, 0) {
    for (const spatial::Poi& p : pois) ++start_[Cell(p.pos) + 1];
    for (size_t i = 1; i < start_.size(); ++i) start_[i] += start_[i - 1];
    index_.resize(pois.size());
    std::vector<uint32_t> fill(start_.begin(), start_.end() - 1);
    for (uint32_t i = 0; i < pois.size(); ++i) {
      index_[fill[Cell(pois[i].pos)]++] = i;
    }
  }

  /// POIs inside `rect`, sorted by id.
  std::vector<spatial::Poi> Inside(const geom::Rect& rect) const {
    std::vector<spatial::Poi> out;
    const int cx1 = Clamp(rect.x1), cx2 = Clamp(rect.x2);
    const int cy1 = Clamp(rect.y1), cy2 = Clamp(rect.y2);
    for (int cy = cy1; cy <= cy2; ++cy) {
      for (int cx = cx1; cx <= cx2; ++cx) {
        const size_t c = static_cast<size_t>(cy) * side_ + cx;
        for (uint32_t k = start_[c]; k < start_[c + 1]; ++k) {
          const spatial::Poi& p = pois_[index_[k]];
          if (rect.Contains(p.pos)) out.push_back(p);
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const spatial::Poi& a, const spatial::Poi& b) {
                return a.id < b.id;
              });
    return out;
  }

 private:
  int Clamp(double v) const {
    return std::clamp(static_cast<int>(v / cell_), 0, side_ - 1);
  }
  size_t Cell(geom::Point p) const {
    return static_cast<size_t>(Clamp(p.y)) * side_ + Clamp(p.x);
  }

  const std::vector<spatial::Poi>& pois_;
  double cell_;
  int side_;
  std::vector<uint32_t> start_;
  std::vector<uint32_t> index_;
};

/// A square around `center` holding at most kPeerRegionMaxPois POIs, as a
/// peer's cache would: the largest power-of-two side that fits.
geom::Rect PeerRegion(const PoiGrid& grid, geom::Point center) {
  const auto square = [&](double side) {
    const geom::Rect r = geom::Rect::CenteredSquare(center, side / 2.0);
    return geom::Rect{std::max(r.x1, 0.0), std::max(r.y1, 0.0),
                      std::min(r.x2, kWorldSide), std::min(r.y2, kWorldSide)};
  };
  double side = 0.1;
  if (grid.Inside(square(side)).size() <= kPeerRegionMaxPois) {
    while (side < 3.2 &&
           grid.Inside(square(side * 2.0)).size() <= kPeerRegionMaxPois) {
      side *= 2.0;
    }
  } else {
    while (side > 0.002 &&
           grid.Inside(square(side)).size() > kPeerRegionMaxPois) {
      side /= 2.0;
    }
  }
  return square(side);
}

struct Pool {
  std::vector<core::QueryRequest> requests;
  /// Backs the requests' peer spans; sized once, never reallocated.
  std::vector<std::vector<core::PeerData>> peers;
  std::vector<uint8_t> has_oracle;
  std::vector<std::vector<int64_t>> oracle_ids;
  std::vector<std::vector<double>> oracle_distances;
};

bool ReadPool(const std::string& path, Pool* pool) {
  PoolReader in(path);
  const uint64_t n = in.Get<uint64_t>();
  if (!in.ok() || n == 0 || n > (1u << 20)) return false;
  pool->requests.resize(n);
  pool->peers.resize(n);
  pool->has_oracle.resize(n);
  pool->oracle_ids.resize(n);
  pool->oracle_distances.resize(n);
  for (size_t i = 0; i < n && in.ok(); ++i) {
    core::QueryRequest& r = pool->requests[i];
    r.kind = in.Get<uint8_t>() == 0 ? core::QueryKind::kKnn
                                    : core::QueryKind::kWindow;
    const double x = in.Get<double>(), y = in.Get<double>();
    geom::Rect window;
    window.x1 = in.Get<double>();
    window.y1 = in.Get<double>();
    window.x2 = in.Get<double>();
    window.y2 = in.Get<double>();
    if (r.kind == core::QueryKind::kKnn) {
      r.position = {x, y};
      r.k = kK;
    } else {
      r.window = window;
    }
    r.slot = in.Get<int64_t>();
    const uint32_t peer_pois = in.Get<uint32_t>();
    if (peer_pois != kAbsent) {
      core::VerifiedRegion vr;
      vr.region.x1 = in.Get<double>();
      vr.region.y1 = in.Get<double>();
      vr.region.x2 = in.Get<double>();
      vr.region.y2 = in.Get<double>();
      for (uint32_t k = 0; k < peer_pois && in.ok(); ++k) {
        spatial::Poi p;
        p.id = in.Get<int64_t>();
        p.pos.x = in.Get<double>();
        p.pos.y = in.Get<double>();
        vr.pois.push_back(p);
      }
      pool->peers[i].push_back(core::PeerData{{std::move(vr)}});
    }
    const uint32_t oracle = in.Get<uint32_t>();
    if (oracle != kAbsent) {
      pool->has_oracle[i] = 1;
      for (uint32_t k = 0; k < oracle && in.ok(); ++k) {
        pool->oracle_ids[i].push_back(in.Get<int64_t>());
        pool->oracle_distances[i].push_back(in.Get<double>());
      }
    }
  }
  for (size_t i = 0; i < n; ++i) pool->requests[i].peers = pool->peers[i];
  return in.ok();
}

uint64_t Fold(uint64_t h, uint64_t v) {
  return Fnv1a(h, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
}

uint64_t HashOutcome(const core::QueryOutcome& o) {
  uint64_t h = Fold(kFnvOffset, o.kind == core::QueryKind::kKnn ? 0 : 1);
  if (o.kind == core::QueryKind::kKnn) {
    for (const spatial::PoiDistance& n : o.knn->neighbors) {
      h = Fold(h, static_cast<uint64_t>(n.poi.id));
      h = Fold(h, std::bit_cast<uint64_t>(n.distance));
    }
    h = Fold(h, o.knn->neighbors.size());
  } else {
    for (const spatial::Poi& p : o.window->pois) {
      h = Fold(h, static_cast<uint64_t>(p.id));
    }
    h = Fold(h, o.window->pois.size());
  }
  const broadcast::AccessStats& s = o.Stats();
  h = Fold(h, static_cast<uint64_t>(s.access_latency));
  h = Fold(h, static_cast<uint64_t>(s.tuning_time));
  return Fold(h, static_cast<uint64_t>(s.buckets_read));
}

/// The answer matches the brute-force oracle: kNN distance-wise (ids may
/// legitimately differ under exact distance ties), windows as id sets.
bool MatchesOracle(const core::QueryOutcome& o, const std::vector<int64_t>& ids,
                   const std::vector<double>& distances) {
  if (o.kind == core::QueryKind::kKnn) {
    const std::vector<spatial::PoiDistance>& got = o.knn->neighbors;
    if (got.size() != distances.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (std::abs(got[i].distance - distances[i]) >= 1e-9) return false;
    }
    return true;
  }
  const std::vector<spatial::Poi>& got = o.window->pois;
  if (got.size() != ids.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != ids[i]) return false;
  }
  return true;
}

/// ns per element of each kernel at the active tier, on a slab the size of
/// one metro shard (median of 7 blocks).
void MeasureKernels(const core::ShardedQueryEngine& engine, Report* report) {
  const size_t n = engine.shard_poi_count(0);
  Rng rng(7);
  std::vector<double> xs(n), ys(n), dist(n);
  std::vector<int64_t> ids(n);
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(0.0, kWorldSide);
    ys[i] = rng.Uniform(0.0, kWorldSide);
    ids[i] = static_cast<int64_t>(i);
  }
  std::vector<int64_t> radius_out;
  radius_out.reserve(n);
  const kernels::KernelOps& ops = kernels::Ops();
  const double c = kWorldSide / 2.0;
  ops.distance_batch(xs.data(), ys.data(), n, c, c, dist.data());
  const auto time_ns = [&](auto&& fn) {
    std::vector<double> blocks;
    for (int rep = 0; rep < 7; ++rep) {
      const int64_t start = NowNs();
      for (int i = 0; i < 8; ++i) fn();
      blocks.push_back(static_cast<double>(NowNs() - start) /
                       (8.0 * static_cast<double>(n)));
    }
    return Median(blocks);
  };
  report->Metric("kernels.distance_batch_ns", time_ns([&] {
                   ops.distance_batch(xs.data(), ys.data(), n, c, c,
                                      dist.data());
                 }),
                 "ns");
  report->Metric("kernels.radius_select_ns", time_ns([&] {
                   radius_out.clear();
                   ops.append_ids_within_radius(xs.data(), ys.data(),
                                                ids.data(), n, c, c, 1.0,
                                                &radius_out);
                 }),
                 "ns");
  report->Metric("kernels.window_mask_ns", time_ns([&] {
                   ops.select_in_window(xs.data(), ys.data(), n, c - 0.5,
                                        c - 0.5, c + 0.5, c + 0.5, idx.data());
                 }),
                 "ns");
  report->Metric("kernels.k_select_ns", time_ns([&] {
                   ops.k_smallest(dist.data(), ids.data(), n, kK, idx.data());
                 }),
                 "ns");
  report->Note(std::string("kernel tier ") +
               kernels::TierName(kernels::ActiveTier()));
}

struct LoopThread {
  core::ShardedQueryWorkspace workspace;
  core::QueryOutcome outcome;
  std::vector<double> latency_us;
  int64_t wrong = 0;
  int64_t executed = 0;
  int64_t end_ns = 0;
  std::unique_ptr<SpanRecorder> spans;
};

/// Per-request facts of the pool, from the first pass.
struct PoolAnswers {
  std::vector<uint64_t> hash;
  std::vector<int64_t> access;
  std::vector<int64_t> tuning;
  std::vector<int64_t> buckets;
  std::vector<uint8_t> peer;
  int64_t oracle_checked = 0;
  int64_t oracle_wrong = 0;
};

template <typename Fn>
void RunThreads(std::vector<LoopThread>* threads, const Fn& fn) {
  std::vector<std::thread> running;
  for (LoopThread& t : *threads) running.emplace_back([&fn, &t] { fn(&t); });
  for (std::thread& t : running) t.join();
}

struct PassResult {
  int64_t executed = 0;
  int64_t wrong = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;
};

/// One closed-loop pass: from a common start, the threads execute every
/// pool request exactly once, back to back, each call timed. With `record`
/// the pass records each answer into `*answers` and checks the oracle
/// sample; otherwise every answer must reproduce the recorded one.
PassResult Pass(const core::ShardedQueryEngine& engine, const Pool& pool,
                PoolAnswers* answers, bool record, bool traced,
                std::vector<LoopThread>* threads) {
  const size_t n = pool.requests.size();
  for (LoopThread& t : *threads) {
    t.latency_us.clear();
    t.latency_us.reserve(n);
    t.wrong = 0;
    t.executed = 0;
    t.spans = std::make_unique<SpanRecorder>(traced, traced ? n : 0);
  }
  std::atomic<size_t> next{0};
  std::atomic<int64_t> checked{0}, oracle_wrong{0};
  const int64_t start = NowNs() + 5'000'000;
  RunThreads(threads, [&](LoopThread* t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start)));
    for (size_t i = next++; i < n; i = next++) {
      const core::QueryRequest& r = pool.requests[i];
      const int64_t t0 = NowNs();
      engine.Execute(r, t->workspace, &t->outcome);
      const int64_t t1 = NowNs();
      t->spans->Add(r.kind == core::QueryKind::kKnn ? "core.execute.knn"
                                                    : "core.execute.window",
                    i, t0, t1);
      t->latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ++t->executed;
      const core::QueryOutcome& o = t->outcome;
      if (!record) {
        if (HashOutcome(o) != answers->hash[i]) ++t->wrong;
        continue;
      }
      answers->hash[i] = HashOutcome(o);
      answers->access[i] = o.Stats().access_latency;
      answers->tuning[i] = o.Stats().tuning_time;
      answers->buckets[i] = o.Stats().buckets_read;
      answers->peer[i] = o.ResolvedByPeers() ? 1 : 0;
      if (pool.has_oracle[i]) {
        ++checked;
        if (!MatchesOracle(o, pool.oracle_ids[i], pool.oracle_distances[i])) {
          ++oracle_wrong;
        }
      }
    }
    t->end_ns = NowNs();
  });
  PassResult r;
  int64_t last = start;
  for (const LoopThread& t : *threads) {
    r.executed += t.executed;
    r.wrong += t.wrong;
    r.latency_us.insert(r.latency_us.end(), t.latency_us.begin(),
                        t.latency_us.end());
    last = std::max(last, t.end_ns);
  }
  r.seconds = SecondsBetween(start, last);
  if (record) {
    answers->oracle_checked = checked;
    answers->oracle_wrong = oracle_wrong;
  }
  return r;
}

}  // namespace

bool PrepareMetro(uint64_t seed, const std::string& store_path) {
  Rng rng(kDatasetSeed);
  const std::vector<spatial::Poi> pois = spatial::GenerateMetroPois(
      &rng, World(), kPois, kClusteredFraction, kClusters, kClusterSpread);
  const storage::SystemBuilder builder = MetroBuilder();
  const std::unique_ptr<core::ShardedQueryEngine> engine =
      builder.BuildFromPois(pois);

  const int64_t write_start = NowNs();
  {
    std::unique_ptr<storage::FileStorageManager> store =
        storage::FileStorageManager::Create(store_path,
                                            storage::kDefaultPageSize);
    if (store == nullptr || !builder.WriteStore(*engine, store.get())) {
      std::fprintf(stderr, "cannot write store %s\n", store_path.c_str());
      return false;
    }
  }
  std::printf("store_write_s %.9f\n", SecondsBetween(write_start, NowNs()));

  int64_t max_cycle = 1;
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->shard_system(s) != nullptr) {
      max_cycle = std::max(max_cycle,
                           engine->shard_system(s)->schedule().cycle_length());
    }
  }
  const PoiGrid grid(pois, 0.1);
  const double window_side = kWorldSide * std::sqrt(kWindowFraction);
  Rng qrng(DeriveStreamSeed(seed, kStreamMetroQueries));
  // The grid cells in a seeded order, so the requests of one broadcast
  // cycle are spread over the whole area.
  std::vector<uint32_t> cells(kPoolSize);
  for (uint32_t c = 0; c < kPoolSize; ++c) cells[c] = c;
  for (size_t c = kPoolSize - 1; c > 0; --c) {
    std::swap(cells[c], cells[qrng.NextBelow(c + 1)]);
  }
  const double cell_side = kWorldSide / kGrid;
  PoolWriter out(store_path + ".requests");
  out.Put<uint64_t>(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    const double cx = static_cast<double>(cells[i] % kGrid) * cell_side;
    const double cy = static_cast<double>(cells[i] / kGrid) * cell_side;
    const geom::Point q{cx + qrng.Uniform(0.0, cell_side),
                        cy + qrng.Uniform(0.0, cell_side)};
    const bool knn = qrng.NextBool(kKnnFraction);
    const geom::Rect window =
        geom::Rect::CenteredSquare(q, window_side / 2.0);
    out.Put<uint8_t>(knn ? 0 : 1);
    out.Put(q.x);
    out.Put(q.y);
    out.Put(window.x1);
    out.Put(window.y1);
    out.Put(window.x2);
    out.Put(window.y2);
    // Requests stream through time, kRequestsPerCycle per broadcast cycle:
    // the engine's per-cycle memo shares work between co-located requests
    // of one cycle and is dropped when the cycle turns.
    out.Put<int64_t>(
        static_cast<int64_t>(i / kRequestsPerCycle) * max_cycle +
        static_cast<int64_t>(qrng.NextBelow(static_cast<uint64_t>(max_cycle))));
    if (qrng.NextBool(kPeerFraction)) {
      const geom::Point center{
          std::clamp(q.x + qrng.Uniform(-0.25, 0.25), 0.0, kWorldSide),
          std::clamp(q.y + qrng.Uniform(-0.25, 0.25), 0.0, kWorldSide)};
      const geom::Rect region = PeerRegion(grid, center);
      const std::vector<spatial::Poi> inside = grid.Inside(region);
      out.Put<uint32_t>(static_cast<uint32_t>(inside.size()));
      out.Put(region.x1);
      out.Put(region.y1);
      out.Put(region.x2);
      out.Put(region.y2);
      for (const spatial::Poi& p : inside) {
        out.Put(p.id);
        out.Put(p.pos.x);
        out.Put(p.pos.y);
      }
    } else {
      out.Put<uint32_t>(kAbsent);
    }
    if (i % kOracleEvery == 0) {
      if (knn) {
        const std::vector<spatial::PoiDistance> truth =
            spatial::BruteForceKnn(pois, q, kK);
        out.Put<uint32_t>(static_cast<uint32_t>(truth.size()));
        for (const spatial::PoiDistance& t : truth) {
          out.Put(t.poi.id);
          out.Put(t.distance);
        }
      } else {
        const std::vector<spatial::Poi> truth =
            spatial::BruteForceWindow(pois, window);
        out.Put<uint32_t>(static_cast<uint32_t>(truth.size()));
        for (const spatial::Poi& t : truth) {
          out.Put(t.id);
          out.Put(0.0);
        }
      }
    } else {
      out.Put<uint32_t>(kAbsent);
    }
  }
  if (!out.Finish()) {
    std::fprintf(stderr, "cannot write the request pool\n");
    return false;
  }
  return true;
}

void RunMetroStore(const RunArgs& args, Report* report) {
  const int64_t run_start = NowNs();
  const storage::SystemBuilder builder = MetroBuilder();

  // Set-up: cold-open the store, several times.
  std::vector<double> open_s;
  std::unique_ptr<core::ShardedQueryEngine> engine;
  for (int i = 0; i < kOpenRepeats; ++i) {
    engine.reset();
    const int64_t start = NowNs();
    storage::OpenStatus status = storage::OpenStatus::kOk;
    const std::unique_ptr<storage::FileStorageManager> store =
        storage::FileStorageManager::Open(args.store, &status);
    if (store != nullptr) {
      engine = builder.OpenFromStore(*store, nullptr, &status);
    }
    open_s.push_back(SecondsBetween(start, NowNs()));
    if (engine == nullptr) {
      report->Fail(std::string("store open: ") +
                   storage::OpenStatusName(status));
      return;
    }
  }

  Pool pool;
  if (!ReadPool(args.store + ".requests", &pool)) {
    report->Fail("cannot read the request pool");
    return;
  }
  const size_t n = pool.requests.size();
  PoolAnswers answers;
  answers.hash.resize(n);
  answers.access.resize(n);
  answers.tuning.resize(n);
  answers.buckets.resize(n);
  answers.peer.resize(n);

  // Whole passes over the pool while another fits in the time; the first
  // records the answers.
  std::vector<LoopThread> threads(kThreads);
  const int64_t deadline =
      run_start + static_cast<int64_t>(args.seconds * 1e9);
  int passes = 0;
  int64_t executed = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;
  const ProcSample proc0 = ProcSample::Now();
  do {
    const PassResult pass = Pass(*engine, pool, &answers, passes == 0,
                                 /*traced=*/false, &threads);
    report->Check(pass.executed, pass.wrong);
    ++passes;
    executed += pass.executed;
    seconds += pass.seconds;
    latency_us.insert(latency_us.end(), pass.latency_us.begin(),
                      pass.latency_us.end());
  } while (!args.trace &&
           NowNs() + static_cast<int64_t>(seconds / passes * 1e9) < deadline);
  const ProcSample proc1 = ProcSample::Now();
  report->Check(answers.oracle_checked, answers.oracle_wrong);
  report->Note("oracle sample: " + std::to_string(answers.oracle_checked) +
               " answers checked, " + std::to_string(answers.oracle_wrong) +
               " wrong; " + std::to_string(passes) + " passes of " +
               std::to_string(n) + " requests on " + std::to_string(kThreads) +
               " threads");
  uint64_t digest = kFnvOffset;
  for (const uint64_t h : answers.hash) digest = Fold(digest, h);
  report->set_digest(digest);

  double access = 0.0, tuning = 0.0, peer = 0.0, buckets = 0.0;
  for (size_t i = 0; i < n; ++i) {
    access += static_cast<double>(answers.access[i]);
    tuning += static_cast<double>(answers.tuning[i]);
    peer += answers.peer[i];
    buckets += static_cast<double>(answers.buckets[i]);
  }
  const double pool_n = static_cast<double>(n);
  if (!args.trace) {
    const LatencySummary latency = Summarize(&latency_us);
    report->Metric("setup_s", Median(open_s), "s");
    report->Metric("throughput_qps", static_cast<double>(executed) / seconds,
                   "q/s");
    report->Metric("latency_p50_us", latency.p50, "us");
    report->Metric("latency_p99_us", latency.p99, "us");
    report->Metric("access_latency_slots", access / pool_n, "slots");
    report->Metric("tuning_slots", tuning / pool_n, "slots");
    report->Metric("broadcast_frac", 1.0 - peer / pool_n, "ratio");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    return;
  }

  // Traced run: a second pass with a span around every Execute.
  const PassResult traced = Pass(*engine, pool, &answers, /*record=*/false,
                                 /*traced=*/true, &threads);
  report->Check(traced.executed, traced.wrong);
  std::vector<const SpanRecorder*> recorders;
  for (const LoopThread& t : threads) recorders.push_back(t.spans.get());
  std::vector<double> knn, window;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<double> k = recorder->DurationsUs("core.execute.knn");
    const std::vector<double> w = recorder->DurationsUs("core.execute.window");
    knn.insert(knn.end(), k.begin(), k.end());
    window.insert(window.end(), w.begin(), w.end());
  }
  const LatencySummary knn_summary = Summarize(&knn);
  const LatencySummary window_summary = Summarize(&window);
  report->Metric("core.knn_p50_us", knn_summary.p50, "us");
  report->Metric("core.knn_p99_us", knn_summary.p99, "us");
  report->Metric("core.window_p50_us", window_summary.p50, "us");
  report->Metric("core.window_p99_us", window_summary.p99, "us");
  report->Metric("core.buckets_read_per_query", buckets / pool_n, "count");
  report->ProcMetrics(proc0, proc1, static_cast<double>(executed));
  report->Metric("trace.overhead_frac",
                 traced.seconds / static_cast<double>(traced.executed) /
                         (seconds / static_cast<double>(executed)) -
                     1.0,
                 "ratio");
  MeasureKernels(*engine, report);
  struct stat st;
  const double store_bytes =
      stat(args.store.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  report->Metric("storage.open_s", Median(open_s), "s");
  report->Metric("storage.bytes_per_poi",
                 store_bytes / static_cast<double>(engine->total_pois()), "B");
  report->Metric("storage.write_s", args.store_write_s, "s");

  report->Spans(recorders, args.trace_out);
}

}  // namespace perfbench
