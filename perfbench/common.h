#ifndef SETM_PERFBENCH_COMMON_H_
#define SETM_PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: the run's arguments, the
// report every workload fills in, raw-sample percentiles, process resource
// readings, registry deltas and the in-memory span recorder of the traced
// run. Nothing here is timed; workloads time their own calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"

namespace setm::perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for file-backed databases (created, then removed).
  std::string workdir = ".";
  /// Where the traced run writes its span log ("" = do not write).
  std::string trace_out;
};

/// One reported figure.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< raw samples behind a median/percentile; 0 = n/a
};

/// Everything a run reports. `end_to_end` is filled by every run;
/// `per_layer` only by traced runs. `exact` names the per-layer counters
/// that repeat bit-for-bit across runs of one seed on this workload.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> exact;
  /// Figures shown to a reader but gated by no bound.
  std::map<std::string, Metric> info;
  std::vector<std::string> errors;

  void Fail(const std::string& what);
  /// The report as one JSON object on one line.
  std::string ToJson() const;
};

/// Nearest-rank percentile of raw samples (p in (0, 100]): the smallest
/// sample with at least p% of the samples at or below it.
double NearestRank(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb();

/// CPU time of this process so far, user and system, in seconds.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes ProcessCpu();

/// Differences of the process-wide metrics registry between construction
/// (or Reset) and now: the series the program already exports.
class RegistryDelta {
 public:
  RegistryDelta() { Reset(); }
  void Reset();
  /// Takes the "now" side; Counter/HistSum/HistCount read it.
  void Capture();
  double Counter(const std::string& name) const;
  double HistSum(const std::string& name) const;
  double HistCount(const std::string& name) const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Adds the per-layer metrics read from the registry (exec, storage,
/// persist, planner, server) to `out`, with counts and busy times divided
/// by `per` (the number of timed operations they are reported per).
void AddRegistryLayers(const RegistryDelta& delta, double per,
                       std::map<std::string, Metric>* out);

/// Spans of the traced run, kept in memory and written out once at the end
/// as JSON lines: {"id","parent","name","thread","start_us","end_us",...}.
/// Thread-safe; span ids are never reused. Disabled recorders are no-ops.
/// Names and count keys must be string literals: a traced serving loop
/// records hundreds of thousands of spans.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  using Counts = std::vector<std::pair<const char*, double>>;

  explicit SpanRecorder(bool enabled);

  /// Records a finished span.
  void Add(const char* name, uint64_t parent, int thread,
               Clock::time_point start, Clock::time_point end,
               Counts counts = {});
  /// Reserves an id for a span whose children finish before it does.
  uint64_t NextId();
  void AddWithId(uint64_t id, const char* name, uint64_t parent, int thread,
                 Clock::time_point start, Clock::time_point end,
                 Counts counts = {});
  /// Writes every span to `path`; false on an I/O error.
  bool WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    const char* name;
    int thread;
    Clock::time_point start;
    Clock::time_point end;
    Counts counts;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

double SecondsBetween(SpanRecorder::Clock::time_point a,
                      SpanRecorder::Clock::time_point b);

/// One finished mining iteration and when its end was observed.
struct IterationBoundary {
  IterationStats stats;
  SpanRecorder::Clock::time_point end;
};

/// The core.* per-layer figures of traced mines: per-iteration times and
/// the cardinality sums of IterationStats.
class IterationLayers {
 public:
  /// Adds one mine that started at `start`. Each iteration becomes a span
  /// under `parent` running from the previous boundary (the first from
  /// `start`); iterations 5 and up share one time slot.
  void AddMine(SpanRecorder* spans, uint64_t parent, int thread,
               SpanRecorder::Clock::time_point start,
               const std::vector<IterationBoundary>& iterations);
  /// core.iter*_s as medians over the mines added; the row sums, iteration
  /// count and R'_k survival of the last one.
  void Report(std::map<std::string, Metric>* out) const;

 private:
  std::vector<double> iter_s_[5];
  double rprime_ = 0, r_ = 0, c_ = 0, iterations_ = 0;
};

/// The three workloads. Each fills `report`; a non-OK outcome is recorded
/// in it (Fail) rather than returned.
void RunQuest(const Args& args, size_t threads, Report* report);
void RunRetailServe(const Args& args, Report* report);

}  // namespace setm::perfbench

#endif  // SETM_PERFBENCH_COMMON_H_
