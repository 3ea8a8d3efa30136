// Workload retail_serve: the paper's retail database in a file-backed
// Database (WAL, fsync on every commit) served by an in-process
// MiningServer to a closed loop of three client connections.
//
// After one cold MINE at 0.1% against the empty result cache, each client
// cycles MINE over the paper's minimum-support sweep with a RULES 60 after
// every MINE. The last client also APPENDs the next seeded 50-transaction
// batch after every kAppendEvery of its MINE+RULES pairs. The APPEND asks
// for 0.1%, the sweep's lowest support, so the stored run it refreshes can
// keep answering every MINE by cache filter.
//
// Every answer is checked after the loop against Apriori mines of the same
// append prefix: MINE and APPEND answers against RenderItemsets of the
// direct mine, RULES answers against FormatRulesCsv of its rules. A read
// that raced an APPEND may legitimately see either prefix, so it passes
// against any prefix between the appends acknowledged before it was sent
// and the appends started before its answer arrived.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "core/miner_registry.h"
#include "core/rules.h"
#include "core/setm.h"
#include "inputs.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace setm::perfbench {

namespace {

using Clock = SpanRecorder::Clock;

constexpr int kSetupRepeats = 11;
constexpr size_t kClients = 3;
constexpr size_t kAppendEvery = 1000;
constexpr double kRuleConfidence = 0.6;

struct Support {
  const char* spec;
  double fraction;
};
constexpr Support kSweep[] = {{"0.1%", 0.001},
                              {"0.5%", 0.005},
                              {"1%", 0.01},
                              {"2%", 0.02},
                              {"5%", 0.05}};
constexpr size_t kSweepSize = sizeof(kSweep) / sizeof(kSweep[0]);

enum class Op : uint8_t { kMine, kRules, kAppend };
constexpr const char* kOpNames[] = {"MINE", "RULES", "APPEND"};
constexpr const char* kExecSpans[] = {"net.BlockingClient::Exec MINE",
                                      "net.BlockingClient::Exec RULES",
                                      "net.BlockingClient::Exec APPEND"};

// Iteration boundaries of a cold mine, from the server's per-iteration
// hook on its job thread. Armed (traced runs only) while the cold MINE, the
// one job in flight, runs.
struct ColdMineClock {
  std::mutex mutex;
  bool armed = false;
  std::vector<IterationBoundary> iterations;

  void OnIteration(const IterationStats& stats) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex);
    if (armed) iterations.push_back({stats, now});
  }
  void Arm(bool on) {
    std::lock_guard<std::mutex> lock(mutex);
    armed = on;
    if (on) iterations.clear();
  }
};

// One served database: its directory, the open Database and the server.
// Destruction stops the server, closes the database and removes the files.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  ~Instance() {
    if (server != nullptr) {
      Status s = server->Stop();
      if (!s.ok()) std::fprintf(stderr, "stop: %s\n", s.ToString().c_str());
    }
    server.reset();
    if (db != nullptr) {
      Status s = db->Close();
      if (!s.ok()) std::fprintf(stderr, "close: %s\n", s.ToString().c_str());
    }
    db.reset();
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }

  std::filesystem::path dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<net::MiningServer> server;
};

struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double total_s = 0;
};

// Generates the base, loads it into a fresh file-backed database under
// the work directory, commits, and starts a server on it.
Status SetUp(const Args& args, int rep, TransactionDb* base, Instance* inst,
             SetupTimes* times, SpanRecorder* spans,
             ColdMineClock* cold_clock) {
  const Clock::time_point t0 = Clock::now();
  *base = RetailBase(args.seed);
  const Clock::time_point t1 = Clock::now();
  inst->dir = std::filesystem::path(args.workdir) /
              ("retail-" + std::to_string(::getpid()) + "-" +
               std::to_string(rep));
  std::error_code ec;
  std::filesystem::remove_all(inst->dir, ec);
  std::filesystem::create_directories(inst->dir, ec);
  if (ec) {
    return Status::IOError("mkdir " + inst->dir.string() + ": " +
                           ec.message());
  }
  DatabaseOptions options;
  options.file_path = (inst->dir / "sales.db").string();
  auto db_or = Database::Open(options);
  if (!db_or.ok()) return db_or.status();
  inst->db = std::move(db_or).value();
  auto table =
      LoadSalesTable(inst->db.get(), "sales", *base, TableBacking::kHeap);
  if (!table.ok()) return table.status();
  SETM_RETURN_IF_ERROR(inst->db->Commit());
  const Clock::time_point t2 = Clock::now();
  net::ServerOptions server_options;
  if (args.trace) {
    server_options.hooks.on_iteration = [cold_clock](const IterationStats& st) {
      cold_clock->OnIteration(st);
    };
  }
  auto server_or = net::MiningServer::Create(inst->db.get(), server_options);
  if (!server_or.ok()) return server_or.status();
  inst->server = std::move(server_or).value();
  SETM_RETURN_IF_ERROR(inst->server->Start());
  const Clock::time_point t3 = Clock::now();
  times->generate_s = SecondsBetween(t0, t1);
  times->load_s = SecondsBetween(t1, t2);
  times->total_s = SecondsBetween(t0, t3);
  const uint64_t setup = spans->NextId();
  spans->Add("datagen.RetailGenerator", setup, 0, t0, t1);
  spans->Add("relational.LoadSalesTable", setup, 0, t1, t2,
             {{"rows", static_cast<double>(table.value()->num_rows())}});
  spans->Add("net.MiningServer::Start", setup, 0, t2, t3);
  spans->AddWithId(setup, "setup", 0, 0, t0, t3);
  return Status::OK();
}

// One answered request, kept for the check after the loop.
struct Record {
  Op op;
  uint8_t support;
  uint32_t lo;  // appends acknowledged before the request was sent
  uint32_t hi;  // appends started before the answer arrived
  uint32_t info;
  uint32_t payload;
};

// What one client saw. Payloads and info lines are interned: the loop
// repeats a few answers thousands of times.
struct ClientLog {
  std::vector<Record> records;
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<const std::string*> strings;
  std::vector<double> latency_ms[3];
  double round_trip_s = 0;
  uint64_t errors = 0;
  std::vector<std::string> error_text;

  uint32_t Intern(std::string s) {
    auto [it, inserted] = ids.emplace(std::move(s), 0);
    if (inserted) {
      it->second = static_cast<uint32_t>(strings.size());
      strings.push_back(&it->first);
    }
    return it->second;
  }
  void Error(const std::string& what) {
    ++errors;
    if (error_text.size() < 5) error_text.push_back(what);
  }
};

// Expected answers for one append prefix.
struct Expected {
  std::string mine_info[kSweepSize];
  std::string mine_payload[kSweepSize];
  std::string rules_info[kSweepSize];
  std::string rules_payload[kSweepSize];
  std::string append_info;  // of the APPEND that produced this prefix
};

// Direct Apriori mines of the base plus the first `prefix` append batches,
// rendered as the server renders its answers. Computed on first use.
class Oracle {
 public:
  Oracle(const TransactionDb* base, uint64_t seed) : base_(base), seed_(seed) {}

  // nullptr if a mine failed.
  const Expected* At(uint32_t prefix) {
    auto it = cache_.find(prefix);
    if (it != cache_.end()) return it->second.get();
    while (batches_.size() < prefix) {
      batches_.push_back(AppendBatch(seed_, batches_.size()));
    }
    TransactionDb txns = *base_;
    for (uint32_t j = 0; j < prefix; ++j) {
      txns.insert(txns.end(), batches_[j].begin(), batches_[j].end());
    }
    auto expected = std::make_unique<Expected>();
    MiningOptions rule_options;
    rule_options.min_confidence = kRuleConfidence;
    for (size_t s = 0; s < kSweepSize; ++s) {
      Database db;
      auto miner = MinerRegistry::Create("apriori", &db);
      if (!miner.ok()) return nullptr;
      MiningRequest request;
      request.transactions = &txns;
      request.options.min_support = kSweep[s].fraction;
      auto mined = miner.value()->Mine(request);
      if (!mined.ok()) return nullptr;
      FrequentItemsets itemsets = std::move(mined.value().itemsets);
      itemsets.Normalize();
      const auto n = static_cast<unsigned long long>(itemsets.num_transactions);
      char info[160];
      std::snprintf(info, sizeof(info),
                    "patterns=%zu transactions=%llu maxk=%zu",
                    itemsets.TotalPatterns(), n, itemsets.MaxSize());
      expected->mine_info[s] = info;
      expected->mine_payload[s] = net::RenderItemsets(itemsets);
      if (s == 0) {
        std::snprintf(info, sizeof(info),
                      "appended=%zu patterns=%zu transactions=%llu",
                      kAppendBatchSize, itemsets.TotalPatterns(), n);
        expected->append_info = info;
      }
      auto rules = GenerateRules(itemsets, rule_options);
      if (!rules.ok()) return nullptr;
      expected->rules_info[s] = "rules=" + std::to_string(rules.value().size());
      expected->rules_payload[s] = FormatRulesCsv(rules.value());
    }
    return (cache_[prefix] = std::move(expected)).get();
  }

  size_t prefixes() const { return cache_.size(); }

 private:
  const TransactionDb* base_;
  uint64_t seed_;
  std::vector<TransactionDb> batches_;
  std::unordered_map<uint32_t, std::unique_ptr<Expected>> cache_;
};

// Sends one request and reads its answer. APPEND streams its rows after
// the command line and is answered after the terminating ".".
Result<net::ClientResponse> Send(net::BlockingClient* client,
                                 const std::string& command,
                                 const TransactionDb* batch) {
  if (batch == nullptr) return client->Exec(command);
  SETM_RETURN_IF_ERROR(client->SendLine(command));
  for (const Transaction& t : *batch) {
    std::string line = std::to_string(t.id);
    for (ItemId item : t.items) line += " " + std::to_string(item);
    SETM_RETURN_IF_ERROR(client->SendLine(line));
  }
  SETM_RETURN_IF_ERROR(client->SendLine("."));
  return client->ReadResponse();
}

// Shared state of the closed loop.
struct Loop {
  const Args* args;
  uint16_t port;
  Clock::time_point deadline;
  SpanRecorder* spans;
  std::atomic<uint32_t> appends_started{0};
  std::atomic<uint32_t> appends_done{0};
};

// One client of the closed loop; the last one also appends.
void RunClient(Loop* loop, size_t c, ClientLog* log) {
  const bool appender = c + 1 == kClients;
  const int thread_id = static_cast<int>(c + 1);
  auto client_or = net::BlockingClient::Connect("127.0.0.1", loop->port);
  if (!client_or.ok()) {
    log->Error("connect: " + client_or.status().ToString());
    return;
  }
  std::unique_ptr<net::BlockingClient> client = std::move(client_or).value();
  // False when the connection is unusable.
  auto run = [&](Op op, uint8_t support, const std::string& command,
                 const TransactionDb* batch) {
    const uint32_t lo = loop->appends_done.load();
    const Clock::time_point start = Clock::now();
    auto answer = Send(client.get(), command, batch);
    const Clock::time_point end = Clock::now();
    const uint32_t hi = loop->appends_started.load();
    const double seconds = SecondsBetween(start, end);
    log->round_trip_s += seconds;
    loop->spans->Add(kExecSpans[static_cast<int>(op)], 0, thread_id, start,
                     end);
    if (!answer.ok()) {
      log->Error(command + ": " + answer.status().ToString());
      return false;
    }
    if (!answer.value().ok) {
      log->Error(command + ": ERR " + answer.value().code + " " +
                 answer.value().info);
      return true;
    }
    log->latency_ms[static_cast<int>(op)].push_back(seconds * 1e3);
    log->records.push_back({op, support, lo, hi,
                            log->Intern(std::move(answer.value().info)),
                            log->Intern(std::move(answer.value().payload))});
    return true;
  };
  for (size_t n = 0; Clock::now() < loop->deadline; ++n) {
    const auto s = static_cast<uint8_t>((n + c) % kSweepSize);
    const std::string mine = std::string("MINE sales SUPPORT ") +
                             kSweep[s].spec;
    if (!run(Op::kMine, s, mine, nullptr)) return;
    if (!run(Op::kRules, s, "RULES 60", nullptr)) return;
    if (appender && (n + 1) % kAppendEvery == 0 &&
        Clock::now() < loop->deadline) {
      const uint32_t j = loop->appends_started.load();
      const TransactionDb batch = AppendBatch(loop->args->seed, j);
      loop->appends_started.store(j + 1);
      const bool sent = run(Op::kAppend, 0,
                            std::string("APPEND sales SUPPORT ") +
                                kSweep[0].spec,
                            &batch);
      loop->appends_done.store(j + 1);
      if (!sent) return;
    }
  }
  (void)client->Exec("QUIT");
}

// Checks one client's answers in order; returns the mismatches.
uint64_t CheckClient(const ClientLog& log, Oracle* oracle, Report* report) {
  uint64_t mismatches = 0;
  int64_t matched = -1;  // prefix the client's last MINE/APPEND matched
  for (const Record& r : log.records) {
    const std::string& info = *log.strings[r.info];
    const std::string& payload = *log.strings[r.payload];
    bool ok = false;
    if (r.op == Op::kRules) {
      const Expected* e =
          matched < 0 ? nullptr : oracle->At(static_cast<uint32_t>(matched));
      ok = e != nullptr && info == e->rules_info[r.support] &&
           payload == e->rules_payload[r.support];
    } else {
      // An APPEND's own answer is at the prefix it created.
      const uint32_t lo = r.op == Op::kAppend ? r.hi : r.lo;
      for (uint32_t p = lo; p <= r.hi && !ok; ++p) {
        const Expected* e = oracle->At(p);
        if (e == nullptr) break;
        const std::string& want_info =
            r.op == Op::kAppend ? e->append_info : e->mine_info[r.support];
        ok = info == want_info && payload == e->mine_payload[r.support];
        if (ok) matched = p;
      }
      if (!ok) matched = -1;
    }
    if (!ok && ++mismatches <= 5) {
      report->Fail(std::string(kOpNames[static_cast<int>(r.op)]) + " at " +
                   kSweep[r.support].spec + " (appends " +
                   std::to_string(r.lo) + ".." + std::to_string(r.hi) +
                   ") differs from the direct mine");
    }
  }
  return mismatches;
}

}  // namespace

void RunRetailServe(const Args& args, Report* report) {
  SetLogLevel(LogLevel::kWarn);
  SpanRecorder spans(args.trace);

  // Set-up and cold mine, repeated on fresh instances: setup_s and mine_s
  // are medians; the last instance serves the loop.
  std::vector<double> setup_s, generate_s, load_s, cold_s;
  TransactionDb base;
  std::unique_ptr<Instance> inst;
  RegistryDelta delta;
  ColdMineClock cold_clock;
  IterationLayers iteration_layers;
  net::ClientResponse cold_answer;
  const std::string cold_command =
      std::string("MINE sales SUPPORT ") + kSweep[0].spec;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    inst.reset();
    inst = std::make_unique<Instance>();
    SetupTimes times;
    Status s =
        SetUp(args, rep, &base, inst.get(), &times, &spans, &cold_clock);
    if (!s.ok()) {
      report->Fail("retail set-up: " + s.ToString());
      return;
    }
    setup_s.push_back(times.total_s);
    generate_s.push_back(times.generate_s);
    load_s.push_back(times.load_s);

    auto client =
        net::BlockingClient::Connect("127.0.0.1", inst->server->port());
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return;
    }
    if (rep == kSetupRepeats - 1) delta.Reset();
    cold_clock.Arm(args.trace);
    const Clock::time_point start = Clock::now();
    auto answer = client.value()->Exec(cold_command);
    const Clock::time_point end = Clock::now();
    cold_clock.Arm(false);
    ++report->attempted;
    if (!answer.ok() || !answer.value().ok) {
      ++report->failed;
      report->Fail("cold mine: " + (answer.ok() ? answer.value().info
                                                : answer.status().ToString()));
      return;
    }
    cold_s.push_back(SecondsBetween(start, end));
    const uint64_t cold_span = spans.NextId();
    spans.AddWithId(cold_span, "net.BlockingClient::Exec MINE cold", 0, 0,
                    start, end);
    iteration_layers.AddMine(&spans, cold_span, 0, start,
                             cold_clock.iterations);
    cold_answer = std::move(answer).value();
  }

  // The closed loop.
  Loop loop;
  loop.args = &args;
  loop.port = inst->server->port();
  loop.spans = &spans;
  std::vector<ClientLog> logs(kClients);
  const CpuTimes cpu_before = ProcessCpu();
  const Clock::time_point loop_start = Clock::now();
  loop.deadline = loop_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, &loop, c, &logs[c]);
  }
  for (std::thread& t : threads) t.join();
  const double loop_s = SecondsBetween(loop_start, Clock::now());
  const CpuTimes cpu_after = ProcessCpu();
  delta.Capture();
  const double peak_rss_mb = PeakRssMb();
  inst.reset();

  // Check every answer, the cold mine's included.
  Oracle oracle(&base, args.seed);
  const Expected* initial = oracle.At(0);
  if (initial == nullptr) {
    report->Fail("oracle mine failed");
    return;
  }
  if (cold_answer.payload != initial->mine_payload[0] ||
      cold_answer.info != initial->mine_info[0]) {
    ++report->failed;
    report->Fail("cold mine answer differs from the direct mine");
  }
  uint64_t requests = 0;
  std::vector<double> latency[3];
  double round_trip_s = cold_s.back();
  for (const ClientLog& log : logs) {
    report->attempted += log.records.size() + log.errors;
    report->failed += log.errors;
    for (const std::string& e : log.error_text) report->Fail(e);
    report->failed += CheckClient(log, &oracle, report);
    requests += log.records.size();
    round_trip_s += log.round_trip_s;
    for (int v = 0; v < 3; ++v) {
      latency[v].insert(latency[v].end(), log.latency_ms[v].begin(),
                        log.latency_ms[v].end());
    }
  }
  if (latency[0].empty() || latency[1].empty()) {
    report->Fail("the loop completed no MINE or RULES");
    return;
  }
  auto rank = [&](Op op, double p) -> Metric {
    const std::vector<double>& samples = latency[static_cast<int>(op)];
    return {NearestRank(samples, p), "ms", samples.size()};
  };

  auto& e2e = report->end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  e2e["mine_s"] = {Median(cold_s), "s", cold_s.size()};
  e2e["mine_p50_ms"] = rank(Op::kMine, 50);
  e2e["rules_p50_ms"] = rank(Op::kRules, 50);
  e2e["serve_rps"] = {static_cast<double>(requests) / loop_s, "1/s",
                      requests};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MiB", 1};
  report->info["mine_p90_ms"] = rank(Op::kMine, 90);
  report->info["mine_p99_ms"] = rank(Op::kMine, 99);
  report->info["append_p50_ms"] = rank(Op::kAppend, 50);
  report->info["append_p99_ms"] = rank(Op::kAppend, 99);
  report->info["appends"] = {static_cast<double>(loop.appends_done.load()),
                             "count", 0};
  report->info["oracle_prefixes"] = {static_cast<double>(oracle.prefixes()),
                                     "count", 0};

  if (!args.trace) return;
  auto& pl = report->per_layer;
  pl["datagen.generate_s"] = {Median(generate_s), "s", generate_s.size()};
  pl["relational.load_sales_s"] = {Median(load_s), "s", load_s.size()};
  iteration_layers.Report(&pl);
  AddRegistryLayers(delta, 1, &pl);
  pl["proc.cpu_user_s"] = {cpu_after.user_s - cpu_before.user_s, "s", 0};
  pl["proc.cpu_sys_s"] = {cpu_after.sys_s - cpu_before.sys_s, "s", 0};
  pl["net.transport_s"] = {round_trip_s - pl["net.server_busy_s"].value, "s",
                           0};
  report->exact = {"core.rprime_rows", "core.r_rows", "core.c_rows",
                   "core.iterations", "core.rprime_survival",
                   "core.plan_full_mine"};
  if (!args.trace_out.empty() && !spans.WriteTo(args.trace_out)) {
    report->Fail("cannot write spans to " + args.trace_out);
  }
}

}  // namespace setm::perfbench
