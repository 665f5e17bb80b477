#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

ProcSample ProcSample::Now() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
            static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  s.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  s.allocs = AllocCount();
  return s;
}

double PeakRssMib() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SpanRecorder::SpanRecorder(bool enabled, size_t capacity) : enabled_(enabled) {
  if (enabled_) spans_.reserve(capacity);
}

uint32_t SpanRecorder::Begin(const char* name, uint64_t request,
                             uint32_t parent) {
  if (!enabled_) return kNone;
  return Add(name, request, NowNs(), 0, parent);
}

void SpanRecorder::End(uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = NowNs();
}

uint32_t SpanRecorder::Add(const char* name, uint64_t request,
                           int64_t start_ns, int64_t end_ns, uint32_t parent) {
  if (!enabled_) return kNone;
  if (spans_.size() == spans_.capacity() || spans_.size() >= kNone) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<SpanRecorder::Layer> SpanRecorder::Layers(
    const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, Layer> layers;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans_;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      Layer& layer = layers[spans[i].name];
      layer.name = spans[i].name;
      const int64_t total = spans[i].end_ns - spans[i].start_ns;
      layer.count += 1;
      layer.total_us += static_cast<double>(total) * 1e-3;
      layer.self_us += static_cast<double>(total - child_ns[i]) * 1e-3;
    }
  }
  std::vector<Layer> out;
  for (auto& [name, layer] : layers) out.push_back(layer);
  return out;
}

bool SpanRecorder::WriteJsonl(const std::vector<const SpanRecorder*>& recorders,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int thread = 0;
  for (const SpanRecorder* recorder : recorders) {
    for (size_t i = 0; i < recorder->spans_.size(); ++i) {
      const Span& s = recorder->spans_[i];
      std::fprintf(f,
                   "{\"thread\":%d,\"id\":%zu,\"parent\":%" PRId64
                   ",\"name\":\"%s\",\"request\":%" PRIu64
                   ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                   thread, i,
                   s.parent == kNone ? int64_t{-1}
                                     : static_cast<int64_t>(s.parent),
                   s.name, s.request, s.start_ns, s.end_ns);
    }
    ++thread;
  }
  return std::fclose(f) == 0;
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Check(int64_t checked, int64_t wrong) {
  attempted_ += checked;
  failed_ += wrong;
}

void Report::Fail(const std::string& why) {
  attempted_ += 1;
  failed_ += 1;
  notes_.push_back("FAILED: " + why);
}

void Report::ProcMetrics(const ProcSample& before, const ProcSample& after,
                         double queries) {
  queries = std::max(queries, 1.0);
  Metric("proc.cpu_us_per_query", (after.cpu_s - before.cpu_s) * 1e6 / queries,
         "us");
  Metric("proc.ctx_switches_per_query",
         static_cast<double>(after.ctx_switches - before.ctx_switches) /
             queries,
         "count");
  Metric("proc.allocs_per_query",
         static_cast<double>(after.allocs - before.allocs) / queries, "count");
}

void Report::Spans(const std::vector<const SpanRecorder*>& recorders,
                   const std::string& path) {
  for (const SpanRecorder::Layer& layer : SpanRecorder::Layers(recorders)) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span %-24s n=%-8" PRId64 " total=%12.1f us self=%12.1f us",
                  layer.name.c_str(), layer.count, layer.total_us,
                  layer.self_us);
    Note(line);
  }
  size_t dropped = 0;
  for (const SpanRecorder* recorder : recorders) dropped += recorder->dropped();
  if (dropped > 0) Note(std::to_string(dropped) + " spans dropped (full)");
  if (!path.empty() && !SpanRecorder::WriteJsonl(recorders, path)) {
    Note("could not write " + path);
  }
}

void Report::Print(const std::string& workload, uint64_t seed,
                   bool trace) const {
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  for (const Entry& m : metrics_) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  answers checked %" PRId64 ", wrong or failed %" PRId64
              ", digest %016" PRIx64 "\n",
              attempted_, failed_, digest_);
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":%d,\"correct\":%s,\"attempted\":%" PRId64
              ",\"failed\":%" PRId64 ",\"digest\":\"%016" PRIx64
              "\",\"metrics\":{",
              workload.c_str(), seed, trace ? 1 : 0,
              correct() ? "true" : "false", attempted_, failed_, digest_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
