#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "measure.h"

/// \file
/// The three workloads. Each builds its inputs from the seed, measures for
/// `seconds`, checks its answers into the report, and reports end-to-end
/// metrics (untraced run) or per-layer metrics (traced run).

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
  /// metro_store: the store and request pool made by PrepareMetro, and the
  /// time the store took to write.
  std::string store;
  double store_write_s = 0.0;
};

void RunWireLa(const RunArgs& args, Report* report);
void RunMetroStore(const RunArgs& args, Report* report);
void RunSimChurnLa(const RunArgs& args, Report* report);

/// Untimed preparation of metro_store, in its own process so the measured
/// process's peak RSS holds only what serving needs: generates the metro
/// dataset, writes the store to `store_path` (printing the write time) and
/// the request pool with its oracle answers to `store_path + ".requests"`.
/// Returns false on an I/O failure.
bool PrepareMetro(uint64_t seed, const std::string& store_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
