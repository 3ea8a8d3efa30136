// S1 — scaling: partitioned SETM (`setm --threads N`) at 1/2/4/8 threads
// on a Quest-generated workload (post-paper: Houtsma & Swami ran SETM
// single-threaded; this measures how far the "mining = sort + merge-scan
// join" reduction parallelizes once SALES is range-partitioned on
// trans_id).
//
// Each trans_id partition is an in-process LocalShardBackend and
// shard::DistributedMine runs the two-phase count over them — inline for
// the one partition of the 1-thread run, on a worker pool above that:
// per-partition join, local count and R_k filter run in parallel, while the
// merge of partial C_k counts and the global minsupport filter run serially
// on the coordinator. Each partition's sorts spill into a temp pool of its
// own, so partitions share no pool mutex.
//
// Expected shape: speedup while per-partition work dominates, flattening as
// the serial C_k merge grows relative to it — an Amdahl curve — and sys
// CPU staying a small fraction of user CPU at every thread count (a rising
// sys share is lock contention). Wall time and the process's user/sys CPU
// seconds are printed, never asserted. What is asserted (exit 1 on any
// mismatch) is the determinism the partitioning promises: at every thread
// count the itemsets and every iteration's k, |R'_k|, |R_k| and |C_k| equal
// the 1-thread run's — and that the sorts spilled (a positive
// setm_sort_spilled_runs_total delta), so the spill path is exercised at
// every thread count.
//
//   scaling_threads            Quest T10.I4.D60K, 1 MiB sort budget
//                              (minutes)
//   scaling_threads --smoke    Quest T10.I4.D2K with a 256 KiB sort budget,
//                              so the sorts spill at every thread count;
//                              the same checks (seconds)

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"

namespace setm {
namespace {

/// This process's user and sys CPU seconds so far.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return CpuTimes{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

/// Prints every iteration whose deterministic counters differ from the
/// 1-thread run's; true when all match.
bool SameIterations(size_t threads, const std::vector<IterationStats>& base,
                    const std::vector<IterationStats>& got) {
  bool same = base.size() == got.size();
  if (!same) {
    std::fprintf(stderr, "threads=%zu: %zu iterations, 1 thread ran %zu\n",
                 threads, got.size(), base.size());
  }
  for (size_t i = 0; i < base.size() && i < got.size(); ++i) {
    const IterationStats& b = base[i];
    const IterationStats& g = got[i];
    if (g.k != b.k || g.r_prime_rows != b.r_prime_rows ||
        g.r_rows != b.r_rows || g.c_size != b.c_size) {
      std::fprintf(stderr,
                   "threads=%zu iteration %zu: k=%zu |R'|=%llu |R|=%llu "
                   "|C|=%llu, 1 thread had k=%zu |R'|=%llu |R|=%llu "
                   "|C|=%llu\n",
                   threads, i, g.k,
                   static_cast<unsigned long long>(g.r_prime_rows),
                   static_cast<unsigned long long>(g.r_rows),
                   static_cast<unsigned long long>(g.c_size), b.k,
                   static_cast<unsigned long long>(b.r_prime_rows),
                   static_cast<unsigned long long>(b.r_rows),
                   static_cast<unsigned long long>(b.c_size));
      same = false;
    }
  }
  return same;
}

int Run(bool smoke) {
  bench::Banner(
      "scaling_threads",
      "ROADMAP: partition parallelism over the paper's two primitives",
      "speedup with threads, flattening at the serial C_k merge, sys CPU a "
      "small share of user CPU (printed, not asserted); identical itemsets "
      "and per-iteration |R'|/|R|/|C| at every thread count (asserted)");

  QuestOptions gen;
  gen.num_transactions = smoke ? 2000 : 60000;
  gen.avg_transaction_size = 10;
  gen.num_items = 400;
  gen.num_patterns = 60;
  gen.seed = 7;
  const TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.01;
  DatabaseOptions db_options;
  if (smoke) db_options.sort_memory_bytes = 256 << 10;
  obs::Counter* spilled = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_spilled_runs_total");

  std::printf("dataset: %s, sort budget %zu bytes\n\n",
              QuestDatasetName(gen).c_str(), db_options.sort_memory_bytes);
  std::printf("%-8s %12s %10s %10s %10s %12s %12s %10s %10s\n", "threads",
              "time(s)", "speedup", "user(s)", "sys(s)", "patterns",
              "iterations", "spills", "match");

  double base_seconds = 0.0;
  MiningResult base;
  for (size_t threads : {1, 2, 4, 8}) {
    Database db(db_options);
    SetmOptions setm_options;
    setm_options.num_threads = threads;
    SetmMiner miner(&db, setm_options);
    const uint64_t spilled_before = spilled->Value();
    const CpuTimes cpu_before = ProcessCpu();
    WallTimer timer;
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const double seconds = timer.ElapsedSeconds();
    const CpuTimes cpu_after = ProcessCpu();
    bool match = true;
    if (threads == 1) {
      base_seconds = seconds;
      base = std::move(result).value();
    } else {
      match = SameIterations(threads, base.iterations,
                             result.value().iterations);
      match &= result.value().itemsets == base.itemsets;
    }
    const MiningResult& shown = threads == 1 ? base : result.value();
    const uint64_t spills = spilled->Value() - spilled_before;
    std::printf("%-8zu %12.3f %9.2fx %10.3f %10.3f %12zu %12zu %10llu %10s\n",
                threads, seconds, base_seconds / seconds,
                cpu_after.user - cpu_before.user,
                cpu_after.sys - cpu_before.sys, shown.itemsets.TotalPatterns(),
                shown.iterations.size(),
                static_cast<unsigned long long>(spills), match ? "yes" : "NO");
    if (!match) {
      std::fprintf(stderr, "thread count %zu changed the result!\n", threads);
      return 1;
    }
    if (spills == 0) {
      std::fprintf(stderr, "thread count %zu spilled no sort run\n",
                   threads);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace setm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return setm::Run(smoke);
}
