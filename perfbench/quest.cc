// Workloads quest_d10k and quest_d10k_t4: Algorithm SETM over Quest
// T10.I4.D10K at 1% minimum support, loaded into an in-memory SALES table
// of a default Database (1 MiB sort budget), sort-merge count, mined
// serially or with num_threads = 4 (the CLI's --threads 4). Each mine is
// followed by rule generation at 60% confidence, the RULES step of a
// mining session. Mines and rules are checked against an Apriori oracle.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/miner_registry.h"
#include "core/rules.h"
#include "core/setm.h"
#include "inputs.h"

namespace setm::perfbench {

namespace {

using Clock = SpanRecorder::Clock;

constexpr int kSetupRepeats = 9;
constexpr int kRuleRepeats = 32;
constexpr double kMinSupport = 0.01;
constexpr double kRuleConfidence = 0.6;
constexpr int kMainThread = 0;

// Iteration boundaries of one traced mine, taken on the mining thread.
class IterationClock : public MiningObserver {
 public:
  bool OnIteration(const IterationStats& stats) override {
    iterations.push_back({stats, Clock::now()});
    return true;
  }
  std::vector<IterationBoundary> iterations;
};

}  // namespace

void RunQuest(const Args& args, size_t threads, Report* report) {
  SpanRecorder spans(args.trace);

  // Set-up, repeated: the median is setup_s; the last instance is mined.
  std::vector<double> setup_s, generate_s, load_s;
  TransactionDb txns;
  std::unique_ptr<Database> db;
  Table* sales = nullptr;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    db.reset();
    const Clock::time_point t0 = Clock::now();
    txns = QuestD10K(args.seed);
    const Clock::time_point t1 = Clock::now();
    db = std::make_unique<Database>();
    auto loaded =
        LoadSalesTable(db.get(), "sales", txns, TableBacking::kMemory);
    const Clock::time_point t2 = Clock::now();
    if (!loaded.ok()) {
      report->Fail("LoadSalesTable: " + loaded.status().ToString());
      return;
    }
    sales = loaded.value();
    setup_s.push_back(SecondsBetween(t0, t2));
    generate_s.push_back(SecondsBetween(t0, t1));
    load_s.push_back(SecondsBetween(t1, t2));
    const uint64_t setup = spans.NextId();
    spans.Add("datagen.QuestGenerator", setup, kMainThread, t0, t1);
    spans.Add("relational.LoadSalesTable", setup, kMainThread, t1, t2,
              {{"rows", static_cast<double>(sales->num_rows())}});
    spans.AddWithId(setup, "setup", 0, kMainThread, t0, t2);
  }

  // The oracle: Apriori over the same transactions, outside any timing.
  FrequentItemsets oracle;
  {
    Database oracle_db;
    auto apriori = MinerRegistry::Create("apriori", &oracle_db);
    if (!apriori.ok()) {
      report->Fail("apriori: " + apriori.status().ToString());
      return;
    }
    MiningRequest request;
    request.transactions = &txns;
    request.options.min_support = kMinSupport;
    auto mined = apriori.value()->Mine(request);
    if (!mined.ok()) {
      report->Fail("apriori oracle: " + mined.status().ToString());
      return;
    }
    oracle = std::move(mined.value().itemsets);
    oracle.Normalize();
  }
  MiningOptions rule_options;
  rule_options.min_confidence = kRuleConfidence;
  std::string oracle_rules;
  {
    auto rules = GenerateRules(oracle, rule_options);
    if (!rules.ok()) {
      report->Fail("oracle rules: " + rules.status().ToString());
      return;
    }
    oracle_rules = FormatRulesCsv(rules.value());
  }

  SetmOptions knobs;
  knobs.storage = TableBacking::kMemory;
  knobs.count_method = CountMethod::kSortMerge;
  knobs.num_threads = threads;

  // Timed mines, each followed by timed rule generation, until the run's
  // seconds are used up. The oracle comparisons are outside the clocks.
  // Every mine gets a freshly loaded database, as a setm_mine run does: on
  // one reused Database each further mine adds about 80 MiB to the peak
  // resident set, which would tie peak_rss_mb to the number of mines.
  std::vector<double> mine_s, rules_ms;
  IterationLayers iteration_layers;
  RegistryDelta delta;
  const CpuTimes cpu_before = ProcessCpu();
  const Clock::time_point phase_start = Clock::now();
  while (mine_s.empty() ||
         SecondsBetween(phase_start, Clock::now()) < args.seconds) {
    if (!mine_s.empty()) {
      db.reset();
      db = std::make_unique<Database>();
      auto loaded =
          LoadSalesTable(db.get(), "sales", txns, TableBacking::kMemory);
      if (!loaded.ok()) {
        report->Fail("LoadSalesTable: " + loaded.status().ToString());
        break;
      }
      sales = loaded.value();
    }
    auto miner = MinerRegistry::Create("setm", db.get(), knobs);
    if (!miner.ok()) {
      report->Fail("setm: " + miner.status().ToString());
      break;
    }
    ++report->attempted;
    const Clock::time_point start = Clock::now();
    IterationClock clock;
    MiningRequest request;
    request.table = sales;
    request.options.min_support = kMinSupport;
    if (args.trace) request.options.observer = &clock;
    auto mined = miner.value()->Mine(request);
    const Clock::time_point end = Clock::now();
    if (!mined.ok()) {
      ++report->failed;
      report->Fail("setm mine: " + mined.status().ToString());
      break;
    }
    mine_s.push_back(SecondsBetween(start, end));
    std::fprintf(stderr, "perfbench: mine %zu: %.3f s, VmHWM %.0f MiB\n",
                 mine_s.size(), mine_s.back(), PeakRssMb());
    MiningResult result = std::move(mined).value();
    result.itemsets.Normalize();
    if (!(result.itemsets == oracle)) {
      ++report->failed;
      report->Fail("mine " + std::to_string(mine_s.size()) + ": " +
                   std::to_string(result.itemsets.TotalPatterns()) +
                   " patterns differ from the apriori oracle's " +
                   std::to_string(oracle.TotalPatterns()));
    }
    // Rule generation takes milliseconds, so it is repeated to give its
    // median enough samples.
    bool rules_ok = true;
    for (int rep = 0; rep < kRuleRepeats; ++rep) {
      ++report->attempted;
      const Clock::time_point rules_start = Clock::now();
      auto rules = GenerateRules(result.itemsets, rule_options);
      const Clock::time_point rules_end = Clock::now();
      if (!rules.ok()) {
        ++report->failed;
        report->Fail("rules: " + rules.status().ToString());
        rules_ok = false;
        break;
      }
      rules_ms.push_back(SecondsBetween(rules_start, rules_end) * 1e3);
      if (FormatRulesCsv(rules.value()) != oracle_rules) {
        ++report->failed;
        report->Fail("rules after mine " + std::to_string(mine_s.size()) +
                     " differ from the oracle's");
      }
      spans.Add("core.GenerateRules", 0, kMainThread, rules_start, rules_end,
                {{"rules", static_cast<double>(rules.value().size())}});
    }
    if (!rules_ok) break;
    if (!args.trace) continue;

    const uint64_t mine_span = spans.NextId();
    iteration_layers.AddMine(&spans, mine_span, kMainThread, start,
                             clock.iterations);
    spans.AddWithId(mine_span, "core.Miner::Mine", 0, kMainThread, start, end,
                    {{"patterns",
                      static_cast<double>(result.itemsets.TotalPatterns())}});
  }
  const double phase_s = SecondsBetween(phase_start, Clock::now());
  delta.Capture();
  const CpuTimes cpu_after = ProcessCpu();
  if (mine_s.empty() || rules_ms.empty()) return;
  const double mines = static_cast<double>(mine_s.size());

  auto& e2e = report->end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  e2e["mine_s"] = {Median(mine_s), "s", mine_s.size()};
  std::vector<double> mine_ms;
  for (double s : mine_s) mine_ms.push_back(s * 1e3);
  e2e["mine_p50_ms"] = {NearestRank(mine_ms, 50), "ms", mine_ms.size()};
  e2e["rules_p50_ms"] = {NearestRank(rules_ms, 50), "ms", rules_ms.size()};
  e2e["serve_rps"] = {mines / phase_s, "1/s", mine_s.size()};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MiB", 1};
  report->info["mine_p99_ms"] = {NearestRank(mine_ms, 99), "ms",
                                 mine_ms.size()};
  report->info["patterns"] = {static_cast<double>(oracle.TotalPatterns()),
                              "count", 0};

  if (!args.trace) return;
  auto& pl = report->per_layer;
  pl["datagen.generate_s"] = {Median(generate_s), "s", generate_s.size()};
  pl["relational.load_sales_s"] = {Median(load_s), "s", load_s.size()};
  iteration_layers.Report(&pl);
  AddRegistryLayers(delta, mines, &pl);
  pl["proc.cpu_user_s"] = {(cpu_after.user_s - cpu_before.user_s) / mines,
                           "s", 0};
  pl["proc.cpu_sys_s"] = {(cpu_after.sys_s - cpu_before.sys_s) / mines, "s",
                          0};
  pl["net.transport_s"] = {0, "s", 0};

  report->exact = {"core.rprime_rows", "core.r_rows", "core.c_rows",
                   "core.iterations", "core.rprime_survival",
                   "exec.sort_rows", "exec.sort_runs",
                   "exec.sort_spilled_runs", "exec.sort_merge_passes"};
  if (threads > 1) {
    report->exact.push_back("exec.worker_tasks");
  } else {
    report->exact.insert(report->exact.end(),
                         {"storage.page_reads", "storage.page_writes",
                          "storage.pool_hit_ratio", "storage.pool_evictions"});
  }
  if (!args.trace_out.empty() && !spans.WriteTo(args.trace_out)) {
    report->Fail("cannot write spans to " + args.trace_out);
  }
}

}  // namespace setm::perfbench
