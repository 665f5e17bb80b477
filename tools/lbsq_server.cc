// lbsq_server: standalone broadcast query server.
//
// Generates a POI dataset and builds the — optionally sharded — broadcast
// system, or cold-opens one persisted by lbsq_store_build (--store, read
// once into memory), and serves the three-step access protocol over
// length-prefixed binary client sessions (see src/server/protocol.h).
// The POI set is generated with the simulator's deterministic RNG stream,
// so `lbsq_load` replaying the same config's workload receives answers
// whose digest matches `lbsq_sim --no-approximate` bit-for-bit.
//
// Examples:
//   lbsq_server --port=4750 --shards=4 --workers=4
//   lbsq_server --port=0 --run-seconds=60     # ephemeral port, timed run
//   lbsq_server --store=la.lbsq --port=4750   # serve a lbsq_store_build store
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/sharded_query_engine.h"
#include "dynamic/rebuild_policy.h"
#include "server/server.h"
#include "sim/config.h"
#include "sim/dataset.h"
#include "sim/query_exec.h"
#include "sim/workload.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void PrintUsage() {
  std::printf(
      "lbsq_server: broadcast query server over binary client sessions\n"
      "\n"
      "Deployment:\n"
      "  --port=<n>                       TCP port on 127.0.0.1 (0 = "
      "ephemeral; default 0)\n"
      "  --workers=<n>                    query worker threads, 1-256 (2)\n"
      "  --queue-capacity=<n>             bounded per-worker queue, 1-65536 "
      "(256)\n"
      "  --inflight-limit=<n>             per-session outstanding budget, "
      "1-65536 (64)\n"
      "  --retry-ms=<n>                   RETRY_AFTER suggested delay, "
      "0-60000 (10)\n"
      "  --run-seconds=<n>                exit after n seconds (0 = until "
      "SIGINT/SIGTERM)\n"
      "\n"
      "Storage:\n"
      "  --store=<path>                   open a persisted page store\n"
      "                                   (lbsq_store_build output) instead\n"
      "                                   of rebuilding; the dataset flags\n"
      "                                   must match the store or the open\n"
      "                                   is refused with a typed error\n"
      "\n"
      "Dataset (must match the lbsq_load / lbsq_sim run to compare "
      "digests):\n%s",
      lbsq::sim::DatasetFlagsHelp());
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// Reads the whole of `value` as a base-10 integer in 0-`max` into `*out`.
/// Otherwise prints one line naming `flag` and returns false. (An
/// out-of-range strtoull result is ULLONG_MAX, above every `max` here.)
template <typename T>
bool ParseWhole(const char* flag, const std::string& value, T max, T* out) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
      *end != '\0' || parsed > static_cast<unsigned long long>(max)) {
    std::fprintf(stderr, "%s must be a whole number in 0-%llu\n", flag,
                 static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsq;

  sim::DatasetSpec spec;
  server::ServerOptions options;
  options.num_workers = 2;
  int run_seconds = 0;
  std::string store_path;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    const char* arg = argv[i];
    std::string spec_error;
    switch (sim::ParseDatasetFlag(arg, &spec, &spec_error)) {
      case sim::DatasetFlagResult::kParsed:
        continue;
      case sim::DatasetFlagResult::kError:
        std::fprintf(stderr, "%s\n", spec_error.c_str());
        return 1;
      case sim::DatasetFlagResult::kNotDatasetFlag:
        break;
    }
    if (ParseFlag(arg, "--help", &value)) {
      PrintUsage();
      return 0;
    } else if (ParseFlag(arg, "--port", &value)) {
      if (!ParseWhole("--port", value, uint16_t{65535}, &options.port)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--workers", &value)) {
      // Each budget parses up to its stated cap; FirstViolation below
      // rejects a zero.
      if (!ParseWhole("--workers", value, server::ServerOptions::kMaxWorkers,
                      &options.num_workers)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--queue-capacity", &value)) {
      if (!ParseWhole("--queue-capacity", value,
                      server::ServerOptions::kMaxQueueCapacity,
                      &options.worker_queue_capacity)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--inflight-limit", &value)) {
      if (!ParseWhole("--inflight-limit", value,
                      server::ServerOptions::kMaxInflightLimit,
                      &options.session_inflight_limit)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--retry-ms", &value)) {
      if (!ParseWhole("--retry-ms", value,
                      server::ServerOptions::kMaxRetryAfterMs,
                      &options.retry_after_ms)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--run-seconds", &value)) {
      if (!ParseWhole("--run-seconds", value,
                      std::numeric_limits<int>::max(), &run_seconds)) {
        return 1;
      }
    } else if (ParseFlag(arg, "--store", &value)) {
      store_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      PrintUsage();
      return 1;
    }
  }
  spec.Validate();
  if (const char* rule = options.FirstViolation()) {
    std::fprintf(stderr,
                 "invalid server options: rule '%s' does not hold\n", rule);
    return 1;
  }

  sim::SimConfig config;
  spec.ApplyTo(&config);
  const geom::Rect world{0.0, 0.0, spec.world_side_mi, spec.world_side_mi};
  storage::SystemBuilder builder(world, config.broadcast);
  builder.SetOptions(sim::EngineOptionsFromConfig(config))
      .SetShards(spec.shards)
      .SetDatasetTag(spec.Digest());

  std::unique_ptr<core::ShardedQueryEngine> engine;
  if (!store_path.empty()) {
    // Cold start from the persisted store: decode its pages once instead of
    // regenerating POIs and re-running the Hilbert build. The store header
    // must name exactly this deployment.
    storage::OpenStatus status = storage::OpenStatus::kOk;
    const auto store = storage::FileStorageManager::Open(store_path, &status);
    if (store == nullptr) {
      std::fprintf(stderr, "FATAL: cannot open store '%s': %s\n",
                   store_path.c_str(), storage::OpenStatusName(status));
      return 1;
    }
    engine = builder.OpenFromStore(*store, &status);
    if (engine == nullptr) {
      std::fprintf(stderr, "FATAL: store '%s' rejected: %s\n",
                   store_path.c_str(), storage::OpenStatusName(status));
      return 1;
    }
    std::printf("store: %s (%lld pages)\n", store_path.c_str(),
                static_cast<long long>(store->page_count()));
  } else {
    // The simulator's deterministic POI stream: same seed, same world, same
    // POIs — the foundation of the lbsq_load digest check.
    Rng poi_rng(DeriveStreamSeed(spec.seed, sim::kStreamPois));
    std::vector<spatial::Poi> pois = spatial::GenerateUniformPois(
        &poi_rng, world, config.ScaledPoiCount());
    engine = builder.BuildFromPois(std::move(pois));
  }
  std::printf("dataset: %zu POIs, world %.1f mi, %d shard(s), seed %llu\n",
              engine->total_pois(), spec.world_side_mi, spec.shards,
              static_cast<unsigned long long>(spec.seed));

  server::Server server(*engine, /*epoch=*/0, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FATAL: %s\n", error.c_str());
    return 1;
  }
  // Scripts parse this line (and need it before the first connect).
  std::printf("lbsq_server listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (run_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(run_seconds)) {
      break;
    }
  }

  server.Stop();
  const server::ServerCounters& counters = server.counters();
  std::printf(
      "sessions opened/closed  : %lld / %lld\n"
      "frames in/out           : %lld / %lld\n"
      "queries executed        : %lld\n"
      "queries inline          : %lld\n"
      "index probes            : %lld\n"
      "buckets served          : %lld\n"
      "retry-after sent        : %lld\n"
      "protocol errors         : %lld\n",
      static_cast<long long>(counters.sessions_opened.load()),
      static_cast<long long>(counters.sessions_closed.load()),
      static_cast<long long>(counters.frames_received.load()),
      static_cast<long long>(counters.frames_sent.load()),
      static_cast<long long>(counters.queries_executed.load()),
      static_cast<long long>(counters.queries_inline.load()),
      static_cast<long long>(counters.index_probes.load()),
      static_cast<long long>(counters.buckets_served.load()),
      static_cast<long long>(counters.retry_after_sent.load()),
      static_cast<long long>(counters.protocol_errors.load()));

  lbsq::MetricsRegistry registry;
  server.ExportMetrics(&registry);
  // The server serves one static epoch; the dynamic.* publication counters
  // are exported at zero so fleet dashboards see one schema for static and
  // churning deployments.
  const dynamic::PublicationStats publication;
  publication.ExportTo(&registry);
  std::printf("epoch publication       : %lld epochs, %lld incremental, "
              "%lld full fallbacks\n",
              static_cast<long long>(
                  registry.counter("dynamic.epochs_published")),
              static_cast<long long>(registry.counter("dynamic.epochs_patched")),
              static_cast<long long>(
                  registry.counter("dynamic.full_rebuild_fallbacks")));
  return 0;
}
