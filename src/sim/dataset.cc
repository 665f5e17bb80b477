#include "sim/dataset.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "sim/metrics.h"

namespace lbsq::sim {

namespace {

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

}  // namespace

void DatasetSpec::Validate() const {
  LBSQ_CHECK_GT(world_side_mi, 0.0);
  LBSQ_CHECK_GT(params.poi_number, 0.0);
  LBSQ_CHECK_GE(params.knn_k, 1.0);
  LBSQ_CHECK_GE(shards, 1);
}

void DatasetSpec::ApplyTo(SimConfig* config) const {
  Validate();
  config->params = params;
  config->world_side_mi = world_side_mi;
  config->seed = seed;
  config->shards = shards;
  config->use_filtering = use_filtering;
}

int64_t DatasetSpec::ScaledPoiCount() const {
  SimConfig config;
  ApplyTo(&config);
  return config.ScaledPoiCount();
}

uint64_t DatasetSpec::Digest() const {
  uint64_t acc = 1469598103934665603ull;  // FNV offset basis
  for (const char c : params.name) {
    acc = DigestFold(acc, static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  acc = DigestFold(acc, std::bit_cast<uint64_t>(params.poi_number));
  acc = DigestFold(acc, std::bit_cast<uint64_t>(world_side_mi));
  acc = DigestFold(acc, seed);
  acc = DigestFold(acc, static_cast<uint64_t>(shards));
  return acc;
}

DatasetFlagResult ParseDatasetFlag(const char* arg, DatasetSpec* spec,
                                   std::string* error) {
  std::string value;
  if (ParseFlag(arg, "--params", &value)) {
    if (value == "la") {
      spec->params = LosAngelesCity();
    } else if (value == "suburbia") {
      spec->params = SyntheticSuburbia();
    } else if (value == "riverside") {
      spec->params = RiversideCounty();
    } else {
      *error = "unknown --params value '" + value +
               "' (expected la|suburbia|riverside)";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--world", &value)) {
    spec->world_side_mi = std::atof(value.c_str());
    if (!std::isfinite(spec->world_side_mi) || spec->world_side_mi <= 0.0) {
      *error = "--world must be a finite positive side length in miles";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--seed", &value)) {
    spec->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--shards", &value)) {
    spec->shards = std::atoi(value.c_str());
    if (spec->shards < 1) {
      *error = "--shards must be >= 1";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--pois", &value)) {
    spec->params.poi_number = std::atof(value.c_str());
    if (!std::isfinite(spec->params.poi_number) ||
        spec->params.poi_number <= 0.0) {
      *error = "--pois must be a finite positive full-scale POI count";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--k", &value)) {
    spec->params.knn_k = std::atof(value.c_str());
    if (!std::isfinite(spec->params.knn_k) || spec->params.knn_k < 1.0) {
      *error = "--k must be finite and >= 1";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--tx", &value)) {
    spec->params.tx_range_m = std::atof(value.c_str());
    if (!std::isfinite(spec->params.tx_range_m)) {
      *error = "--tx must be a finite range in meters";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--csize", &value)) {
    spec->params.csize = std::atoi(value.c_str());
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--window-pct", &value)) {
    spec->params.window_pct = std::atof(value.c_str());
    if (!std::isfinite(spec->params.window_pct) ||
        spec->params.window_pct <= 0.0) {
      *error = "--window-pct must be a finite positive percentage";
      return DatasetFlagResult::kError;
    }
    return DatasetFlagResult::kParsed;
  }
  if (ParseFlag(arg, "--no-filtering", &value)) {
    spec->use_filtering = false;
    return DatasetFlagResult::kParsed;
  }
  return DatasetFlagResult::kNotDatasetFlag;
}

const char* DatasetFlagsHelp() {
  return
      "  --params=la|suburbia|riverside   Table 3 parameter set (la)\n"
      "  --world=<miles>                  world side (3.0; 20 = full scale)\n"
      "  --seed=<n>                       POI-stream RNG seed (1)\n"
      "  --shards=<n>                     Hilbert-range broadcast channels "
      "(1)\n"
      "  --pois=<n>                       full-scale POI count override\n"
      "                                   (scaled by (world/20)^2)\n"
      "  --k=<mean>                       mean kNN k override\n"
      "  --tx=<meters>                    transmission range override\n"
      "  --csize=<pois>                   cache capacity override\n"
      "  --window-pct=<pct>               mean window size override\n"
      "  --no-filtering                   disable the 3.3.3 data filter\n";
}

}  // namespace lbsq::sim
