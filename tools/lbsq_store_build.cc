// lbsq_store_build: one-shot builder for persisted broadcast stores.
//
// Generates the dataset named by the shared DatasetSpec flags (the
// simulator's deterministic POI stream), builds the sharded broadcast
// deployment through SystemBuilder, and persists every built artifact —
// per-shard POIs, the CRC-framed bucket wire bytes, the air-index segment,
// the shard map — into a single-file page store of 4 KiB pages. `lbsq_server
// --store=<file>` then serves the deployment by decoding pages instead of
// re-running the Hilbert build, and refuses a store whose header digest or
// build parameters disagree with its own flags.
//
// The store is written to a temporary file beside --out and renamed over
// it once complete and synced, so --out names the previous store until the
// new one is in place. A failed write (disk full, file-size limit) exits 1
// with one line on stderr and leaves --out as it was.
//
// Examples:
//   lbsq_store_build --out=la.lbsq                        # LA City, bench scale
//   lbsq_store_build --out=metro.lbsq --world=20 --pois=1000000 --shards=8
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "sim/dataset.h"
#include "sim/query_exec.h"
#include "sim/workload.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"

namespace {

void PrintUsage() {
  std::printf(
      "lbsq_store_build: build a dataset once, persist it as a page store\n"
      "\n"
      "Output:\n"
      "  --out=<path>                     store file to write (required);\n"
      "                                   replaced only by a complete store\n"
      "\n"
      "Dataset (must match the lbsq_server --store run):\n%s",
      lbsq::sim::DatasetFlagsHelp());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsq;

  sim::DatasetSpec spec;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string error;
    switch (sim::ParseDatasetFlag(arg, &spec, &error)) {
      case sim::DatasetFlagResult::kParsed:
        continue;
      case sim::DatasetFlagResult::kError:
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      case sim::DatasetFlagResult::kNotDatasetFlag:
        break;
    }
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      PrintUsage();
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "--out=<path> is required\n");
    PrintUsage();
    return 2;
  }
  spec.Validate();

  sim::SimConfig config;
  spec.ApplyTo(&config);
  const geom::Rect world{0.0, 0.0, spec.world_side_mi, spec.world_side_mi};
  Rng poi_rng(DeriveStreamSeed(spec.seed, sim::kStreamPois));

  const auto gen_start = std::chrono::steady_clock::now();
  std::vector<spatial::Poi> pois =
      spatial::GenerateUniformPois(&poi_rng, world, config.ScaledPoiCount());
  std::printf("dataset   : %zu POIs, world %.1f mi, %d shard(s), seed %llu\n",
              pois.size(), spec.world_side_mi, spec.shards,
              static_cast<unsigned long long>(spec.seed));

  storage::SystemBuilder builder(world, config.broadcast);
  builder.SetOptions(sim::EngineOptionsFromConfig(config))
      .SetShards(spec.shards)
      .SetDatasetTag(spec.Digest());
  const auto build_start = std::chrono::steady_clock::now();
  const auto engine = builder.BuildFromPois(std::move(pois));
  const auto build_end = std::chrono::steady_clock::now();

  auto store = storage::FileStorageManager::Create(out_path,
                                                  storage::kDefaultPageSize);
  if (store == nullptr) {
    std::fprintf(stderr, "FATAL: cannot create '%s'\n", out_path.c_str());
    return 1;
  }
  if (!builder.WriteStore(*engine, store.get())) {
    std::fprintf(stderr, "FATAL: write to '%s' failed\n", out_path.c_str());
    return 1;
  }
  const auto write_end = std::chrono::steady_clock::now();

  const auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  std::printf(
      "store     : %s (%lld pages x %zu B = %.1f MiB)\n"
      "digest    : %016llx\n"
      "timing    : generate %.2f s, build %.2f s, persist %.2f s\n",
      out_path.c_str(), static_cast<long long>(store->page_count()),
      store->page_size(),
      static_cast<double>(store->page_count()) *
          static_cast<double>(store->page_size()) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(spec.Digest()),
      secs(gen_start, build_start), secs(build_start, build_end),
      secs(build_end, write_end));
  return 0;
}
