#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace setm::perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// All the digits a double carries: results are compared as measured.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"end_to_end\": " + JsonMetrics(end_to_end);
  out += ", \"per_layer\": " + JsonMetrics(per_layer);
  out += ", \"info\": " + JsonMetrics(info);
  out += ", \"exact\": [";
  for (size_t i = 0; i < exact.size(); ++i) {
    out += (i ? ", " : "") + JsonString(exact[i]);
  }
  out += "], \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  return out + "]}";
}

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(p / 100.0 * n);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

CpuTimes ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

void RegistryDelta::Reset() {
  before_ = obs::MetricsRegistry::Global()->Snapshot();
  after_ = before_;
}

void RegistryDelta::Capture() {
  after_ = obs::MetricsRegistry::Global()->Snapshot();
}

double RegistryDelta::Counter(const std::string& name) const {
  return static_cast<double>(after_.CounterValue(name)) -
         static_cast<double>(before_.CounterValue(name));
}

double RegistryDelta::HistSum(const std::string& name) const {
  const obs::HistogramSnapshot* a = after_.FindHistogram(name);
  const obs::HistogramSnapshot* b = before_.FindHistogram(name);
  return (a ? static_cast<double>(a->sum) : 0.0) -
         (b ? static_cast<double>(b->sum) : 0.0);
}

double RegistryDelta::HistCount(const std::string& name) const {
  const obs::HistogramSnapshot* a = after_.FindHistogram(name);
  const obs::HistogramSnapshot* b = before_.FindHistogram(name);
  return (a ? static_cast<double>(a->count) : 0.0) -
         (b ? static_cast<double>(b->count) : 0.0);
}

void AddRegistryLayers(const RegistryDelta& delta, double per,
                       std::map<std::string, Metric>* out) {
  auto& pl = *out;
  auto count = [&](const char* series) { return delta.Counter(series) / per; };
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  pl["exec.sort_rows"] = {count("setm_sort_rows_total"), "rows", 0};
  pl["exec.sort_runs"] = {count("setm_sort_runs_total"), "count", 0};
  pl["exec.sort_spilled_runs"] = {count("setm_sort_spilled_runs_total"),
                                  "count", 0};
  pl["exec.sort_merge_passes"] = {count("setm_sort_merge_passes_total"),
                                  "count", 0};
  pl["exec.worker_busy_s"] = {
      delta.HistSum("setm_worker_task_micros") / 1e6 / per, "s", 0};
  pl["exec.worker_wait_s"] = {
      delta.HistSum("setm_worker_queue_wait_micros") / 1e6 / per, "s", 0};
  pl["exec.worker_tasks"] = {delta.HistCount("setm_worker_task_micros") / per,
                             "count", 0};

  pl["storage.page_reads"] = {count("setm_io_page_reads_total"), "count", 0};
  pl["storage.page_writes"] = {count("setm_io_page_writes_total"), "count",
                               0};
  const double hits = delta.Counter("setm_pool_hits_total");
  const double misses = delta.Counter("setm_pool_misses_total");
  pl["storage.pool_hit_ratio"] = {ratio(hits, hits + misses), "ratio", 0};
  pl["storage.pool_evictions"] = {count("setm_pool_evictions_total"), "count",
                                  0};

  pl["persist.wal_bytes"] = {count("setm_wal_bytes_total"), "bytes", 0};
  pl["persist.wal_fsyncs"] = {count("setm_wal_fsyncs_total"), "count", 0};
  pl["persist.wal_commits"] = {count("setm_wal_commit_records_total"),
                               "count", 0};

  const double full = delta.Counter("setm_plan_full_mine_total");
  const double derive = delta.Counter("setm_plan_delta_derive_total");
  const double filter = delta.Counter("setm_plan_cache_filter_total");
  pl["core.plan_full_mine"] = {full / per, "count", 0};
  pl["core.plan_delta_derive"] = {derive / per, "count", 0};
  pl["core.plan_cache_filter"] = {filter / per, "count", 0};
  pl["core.plan_busy_s"] = {
      delta.HistSum("setm_plan_request_micros") / 1e6 / per, "s", 0};
  pl["core.cache_hit_ratio"] = {ratio(filter, full + derive + filter),
                                "ratio", 0};

  pl["net.server_busy_s"] = {
      delta.HistSum("setm_srv_request_micros") / 1e6 / per, "s", 0};
  pl["net.bytes_written"] = {count("setm_srv_bytes_written_total"), "bytes",
                             0};
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

uint64_t SpanRecorder::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Add(const char* name, uint64_t parent, int thread,
                       Clock::time_point start, Clock::time_point end,
                       Counts counts) {
  if (!enabled_) return;
  AddWithId(NextId(), name, parent, thread, start, end, std::move(counts));
}

void SpanRecorder::AddWithId(uint64_t id, const char* name, uint64_t parent,
                             int thread, Clock::time_point start,
                             Clock::time_point end, Counts counts) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, name, thread, start, end, std::move(counts)});
}

bool SpanRecorder::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (const Span& s : spans_) {
    std::string line = "{\"id\": " + std::to_string(s.id) +
                       ", \"parent\": " + std::to_string(s.parent) +
                       ", \"name\": " + JsonString(s.name) +
                       ", \"thread\": " + std::to_string(s.thread) +
                       ", \"start_us\": " + JsonNumber(micros(s.start)) +
                       ", \"end_us\": " + JsonNumber(micros(s.end));
    for (const auto& [key, value] : s.counts) {
      line += ", " + JsonString(key) + ": " + JsonNumber(value);
    }
    line += "}\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

double SecondsBetween(SpanRecorder::Clock::time_point a,
                      SpanRecorder::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace setm::perfbench

namespace setm::perfbench {

void IterationLayers::AddMine(
    SpanRecorder* spans, uint64_t parent, int thread,
    SpanRecorder::Clock::time_point start,
    const std::vector<IterationBoundary>& iterations) {
  double slot_s[5] = {0, 0, 0, 0, 0};
  rprime_ = r_ = c_ = 0;
  SpanRecorder::Clock::time_point last = start;
  for (const IterationBoundary& b : iterations) {
    const IterationStats& st = b.stats;
    slot_s[st.k >= 5 ? 4 : st.k - 1] += SecondsBetween(last, b.end);
    spans->Add("core.iteration", parent, thread, last, b.end,
               {{"k", static_cast<double>(st.k)},
                {"rprime_rows", static_cast<double>(st.r_prime_rows)},
                {"r_rows", static_cast<double>(st.r_rows)},
                {"c_rows", static_cast<double>(st.c_size)}});
    last = b.end;
    rprime_ += static_cast<double>(st.r_prime_rows);
    r_ += static_cast<double>(st.r_rows);
    c_ += static_cast<double>(st.c_size);
  }
  iterations_ = static_cast<double>(iterations.size());
  for (int k = 0; k < 5; ++k) iter_s_[k].push_back(slot_s[k]);
}

void IterationLayers::Report(std::map<std::string, Metric>* out) const {
  static const char* const kNames[5] = {"core.iter1_s", "core.iter2_s",
                                        "core.iter3_s", "core.iter4_s",
                                        "core.iter5plus_s"};
  auto& pl = *out;
  for (int k = 0; k < 5; ++k) {
    pl[kNames[k]] = {Median(iter_s_[k]), "s", iter_s_[k].size()};
  }
  pl["core.rprime_rows"] = {rprime_, "rows", 0};
  pl["core.r_rows"] = {r_, "rows", 0};
  pl["core.c_rows"] = {c_, "rows", 0};
  pl["core.iterations"] = {iterations_, "count", 0};
  pl["core.rprime_survival"] = {rprime_ > 0 ? r_ / rprime_ : 0, "ratio", 0};
}

}  // namespace setm::perfbench
