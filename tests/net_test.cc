// Unit and integration tests for src/net: line framing, protocol parsing,
// response framing, and the MiningServer session state machine — admission
// control, busy rejection, disconnect-cancellation, APPEND streaming and
// graceful shutdown — against a real server on a loopback socket.
//
// The suite is tier1 and must stay TSan-clean: every cross-thread seam the
// server has (loop thread vs job pool vs test thread) gets exercised here.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/setm.h"
#include "core/types.h"
#include "net/client.h"
#include "net/line_buffer.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/database.h"

namespace setm::net {
namespace {

// ---------------------------------------------------------------- framing

TEST(LineBufferTest, ReassemblesChunkedLines) {
  LineBuffer buffer(64);
  std::string line;
  buffer.Feed("PI", 2);
  EXPECT_FALSE(buffer.NextLine(&line));
  buffer.Feed("NG\nQU", 5);
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "PING");
  EXPECT_FALSE(buffer.NextLine(&line));
  buffer.Feed("IT\n", 3);
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "QUIT");
}

TEST(LineBufferTest, SplitsCoalescedLinesAndStripsCrlf) {
  LineBuffer buffer(64);
  const std::string wire = "a\r\nb\nc\r\n";
  buffer.Feed(wire.data(), wire.size());
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "b");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "c");
  EXPECT_FALSE(buffer.NextLine(&line));
  EXPECT_EQ(buffer.buffered_bytes(), 0u);
}

TEST(LineBufferTest, EmptyLinesSurvive) {
  LineBuffer buffer(64);
  buffer.Feed("\n\nx\n", 4);
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "x");
}

TEST(LineBufferTest, OversizedLineDiscardedAndResynced) {
  LineBuffer buffer(8);
  const std::string wire = std::string(100, 'x');
  buffer.Feed(wire.data(), wire.size());  // no newline yet: still discarding
  std::string line;
  EXPECT_FALSE(buffer.NextLine(&line));
  EXPECT_LE(buffer.buffered_bytes(), 8u);  // memory stays bounded
  buffer.Feed("tail\nok\n", 8);
  ASSERT_TRUE(buffer.NextLine(&line));  // "xxx...tail" was eaten whole
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(buffer.TakeOversized(), 1u);
  EXPECT_EQ(buffer.TakeOversized(), 0u);  // take semantics: reset on read
}

TEST(LineBufferTest, CountsEachOversizedLine) {
  LineBuffer buffer(4);
  const std::string wire = "aaaaaaaa\nbbbbbbbb\nok\n";
  buffer.Feed(wire.data(), wire.size());
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(buffer.TakeOversized(), 2u);
}

TEST(WriteBufferTest, CapsBacklog) {
  WriteBuffer buffer(8);
  EXPECT_TRUE(buffer.Append("1234").ok());
  Status overflow = buffer.Append("56789");
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(buffer.pending_bytes(), 4u);  // the failed append queued nothing
}

// ---------------------------------------------------------------- parsing

TEST(ProtocolTest, ParsesMineWithAllOptions) {
  auto cmd_or =
      ParseCommand("mine sales support 2.5% algo setm threads 3 maxk 4");
  ASSERT_TRUE(cmd_or.ok()) << cmd_or.status().ToString();
  const Command& cmd = cmd_or.value();
  EXPECT_EQ(cmd.verb, Verb::kMine);
  EXPECT_EQ(cmd.table, "sales");  // table names keep their case
  EXPECT_DOUBLE_EQ(cmd.min_support, 0.025);
  EXPECT_EQ(cmd.min_support_count, 0);
  EXPECT_EQ(cmd.algo, "setm");
  EXPECT_EQ(cmd.threads, 3u);
  EXPECT_EQ(cmd.max_k, 4u);
}

TEST(ProtocolTest, ParsesAbsoluteSupport) {
  auto cmd_or = ParseCommand("MINE Sales SUPPORT 150");
  ASSERT_TRUE(cmd_or.ok());
  EXPECT_EQ(cmd_or.value().table, "Sales");
  EXPECT_EQ(cmd_or.value().min_support_count, 150);
  EXPECT_DOUBLE_EQ(cmd_or.value().min_support, 0.0);
}

TEST(ProtocolTest, ParsesRulesAndStats) {
  auto rules_or = ParseCommand("RULES 70% MODE subsets");
  ASSERT_TRUE(rules_or.ok());
  EXPECT_EQ(rules_or.value().verb, Verb::kRules);
  EXPECT_DOUBLE_EQ(rules_or.value().min_confidence, 0.70);
  EXPECT_EQ(rules_or.value().rule_mode, RuleMode::kAnySubset);

  auto stats_or = ParseCommand("STATS prom");
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().verb, Verb::kStats);
  EXPECT_EQ(stats_or.value().stats_format, "prom");
}

TEST(ProtocolTest, RejectsMalformedLines) {
  const char* bad[] = {
      "FROBNICATE",                 // unknown verb
      "MINE",                       // missing table
      "MINE sales",                 // missing SUPPORT
      "MINE sales SUPPORT",         // missing spec
      "MINE sales SUPPORT -5",      // negative support
      "MINE sales SUPPORT 2% BOGUS 1",  // unknown option
      "MINE sales SUPPORT 2% THREADS x",
      "RULES",                      // missing confidence
      "RULES 120%",                 // out of range
      "RULES 50 MODE sideways",     // unknown mode
      "STATS xml",                  // unknown format
  };
  for (const char* line : bad) {
    auto cmd_or = ParseCommand(line);
    EXPECT_FALSE(cmd_or.ok()) << "accepted: " << line;
    EXPECT_EQ(cmd_or.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ProtocolTest, ParsesLcountAndMerge) {
  // Begin form: table, K 1, optional METHOD / FILTER in either order.
  auto begin_or = ParseCommand("LCOUNT sales K 1");
  ASSERT_TRUE(begin_or.ok()) << begin_or.status().ToString();
  EXPECT_EQ(begin_or.value().verb, Verb::kLcount);
  EXPECT_EQ(begin_or.value().table, "sales");
  EXPECT_EQ(begin_or.value().shard_k, 1u);
  EXPECT_EQ(begin_or.value().shard_method, "sortmerge");
  EXPECT_FALSE(begin_or.value().shard_filter);

  auto hashed_or = ParseCommand("lcount Sales k 1 method HASH filter");
  ASSERT_TRUE(hashed_or.ok()) << hashed_or.status().ToString();
  EXPECT_EQ(hashed_or.value().table, "Sales");  // table keeps its case
  EXPECT_EQ(hashed_or.value().shard_method, "hash");
  EXPECT_TRUE(hashed_or.value().shard_filter);

  // Continuation form: no table, k >= 2.
  auto cont_or = ParseCommand("LCOUNT K 3");
  ASSERT_TRUE(cont_or.ok()) << cont_or.status().ToString();
  EXPECT_EQ(cont_or.value().verb, Verb::kLcount);
  EXPECT_TRUE(cont_or.value().table.empty());
  EXPECT_EQ(cont_or.value().shard_k, 3u);

  auto merge_or = ParseCommand("MERGE K 2");
  ASSERT_TRUE(merge_or.ok()) << merge_or.status().ToString();
  EXPECT_EQ(merge_or.value().verb, Verb::kMerge);
  EXPECT_EQ(merge_or.value().shard_k, 2u);
}

TEST(ProtocolTest, RejectsMalformedShardLines) {
  const char* bad[] = {
      "LCOUNT",                        // nothing
      "LCOUNT K",                      // missing k
      "LCOUNT K 1",                    // a run must begin with a table
      "LCOUNT K 0",                    // k out of range
      "LCOUNT K 65",                   // k over the cap
      "LCOUNT K x",                    // not a number
      "LCOUNT sales",                  // missing K 1
      "LCOUNT sales K 2",              // new runs begin at K 1
      "LCOUNT sales K 1 METHOD",       // missing method value
      "LCOUNT sales K 1 METHOD tree",  // unknown method
      "LCOUNT sales K 1 BOGUS",        // unknown option
      "MERGE",                         // nothing
      "MERGE K",                       // missing k
      "MERGE K 0",                     // k out of range
      "MERGE K 65",                    // k over the cap
      "MERGE 2",                       // missing K keyword
      "MERGE K 2 EXTRA",               // trailing junk
  };
  for (const char* line : bad) {
    auto cmd_or = ParseCommand(line);
    EXPECT_FALSE(cmd_or.ok()) << "accepted: " << line;
    EXPECT_EQ(cmd_or.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ProtocolTest, ParsesItemsetLineStrictlyAscending) {
  auto one_or = ParseItemsetLine("7");
  ASSERT_TRUE(one_or.ok());
  EXPECT_EQ(one_or.value(), (std::vector<ItemId>{7}));

  auto three_or = ParseItemsetLine("1 3 12");
  ASSERT_TRUE(three_or.ok());
  EXPECT_EQ(three_or.value(), (std::vector<ItemId>{1, 3, 12}));

  const char* bad[] = {
      "",         // empty
      "x",        // not a number
      "-1",       // negative item
      "3 1",      // descending
      "1 1",      // duplicate (itemsets are strictly ascending)
      "1 2 x",    // trailing junk
  };
  for (const char* line : bad) {
    auto itemset_or = ParseItemsetLine(line);
    EXPECT_FALSE(itemset_or.ok()) << "accepted: '" << line << "'";
    EXPECT_EQ(itemset_or.status().code(), StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(ProtocolTest, ParsesAppendRowSortedAndDeduped) {
  auto row_or = ParseAppendRow("42 7 3 7 1");
  ASSERT_TRUE(row_or.ok());
  EXPECT_EQ(row_or.value().id, 42u);
  EXPECT_EQ(row_or.value().items, (std::vector<ItemId>{1, 3, 7}));

  EXPECT_FALSE(ParseAppendRow("42").ok());       // no items
  EXPECT_FALSE(ParseAppendRow("x 1").ok());      // bad id
  EXPECT_FALSE(ParseAppendRow("42 -3").ok());    // negative item
}

TEST(ProtocolTest, DotStuffingRoundTrips) {
  const std::string framed = FrameOk("info", ".hidden\nplain\n..\n");
  // Every payload line that starts with '.' gains a protection dot.
  EXPECT_EQ(framed, "OK info\n..hidden\nplain\n...\n.\n");
  EXPECT_EQ(UnstuffPayloadLine("..hidden"), ".hidden");
  EXPECT_EQ(UnstuffPayloadLine("..."), "..");
  EXPECT_EQ(UnstuffPayloadLine("plain"), "plain");
}

TEST(ProtocolTest, FrameErrorCarriesCodeName) {
  EXPECT_EQ(FrameError(Status::NotFound("no such table")),
            "ERR NotFound no such table\n");
}

// ------------------------------------------------------------ the server

/// A gate the test holds closed to park a mining job mid-iteration: the
/// deterministic handle on "a request is in flight right now".
class IterationGate {
 public:
  /// Blocks the calling (job) thread until Open() when the gate is closed.
  void Hook(const IterationStats&) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

  /// Waits until a job thread is parked inside the gate.
  bool AwaitEntered(int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return entered_ > 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TransactionDb TinyTxns() {
  // The paper's Section 4.2 worked example (A=0 .. H=7).
  return {
      {10, {0, 1, 2}}, {20, {0, 1, 3}}, {30, {0, 1, 2}}, {40, {1, 2, 3}},
      {50, {0, 2, 6}}, {60, {0, 3, 6}}, {70, {0, 4, 7}}, {80, {3, 4, 5}},
      {90, {3, 4, 5}}, {99, {3, 4, 5}},
  };
}

/// One in-memory database + server, bound to an ephemeral loopback port.
struct ServerFixture {
  /// `store_prefix` is empty by default: per-test isolation, no shared
  /// result cache.
  explicit ServerFixture(ServerOptions options = {},
                         DatabaseOptions db_options = {},
                         std::string store_prefix = "")
      : db(std::move(db_options)) {
    auto sales = LoadSalesTable(&db, "sales", TinyTxns(), TableBacking::kMemory);
    EXPECT_TRUE(sales.ok()) << sales.status().ToString();
    options.port = 0;
    options.store_prefix = std::move(store_prefix);
    auto server_or = MiningServer::Create(&db, std::move(options));
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    server = std::move(server_or).value();
    EXPECT_TRUE(server->Start().ok());
  }

  ~ServerFixture() {
    if (server != nullptr) {
      EXPECT_TRUE(server->Stop().ok());
    }
  }

  std::unique_ptr<BlockingClient> Connect() {
    auto client_or = BlockingClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client_or.ok()) << client_or.status().ToString();
    return std::move(client_or).value();
  }

  /// Polls a server stat until it becomes true or the deadline passes.
  template <typename Predicate>
  bool AwaitStats(Predicate pred, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server->Stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred(server->Stats());
  }

  Database db;
  std::unique_ptr<MiningServer> server;
};

TEST(MiningServerTest, PingMineRulesQuit) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  auto pong = client->Exec("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().info, "pong");

  auto mine = client->Exec("MINE sales SUPPORT 30%");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(mine.value().ok) << mine.value().info;
  EXPECT_NE(mine.value().info.find("transactions=10"), std::string::npos);
  EXPECT_FALSE(mine.value().payload.empty());

  // The session remembers its last result; RULES works off it.
  auto rules = client->Exec("RULES 70");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE(rules.value().ok) << rules.value().info;
  EXPECT_NE(rules.value().payload.find(
                "antecedent,consequent,confidence,support,lift"),
            std::string::npos);

  auto quit = client->Exec("QUIT");
  ASSERT_TRUE(quit.ok());
  EXPECT_TRUE(quit.value().ok);
  EXPECT_EQ(quit.value().info, "bye");
}

TEST(MiningServerTest, MineMatchesDirectMiner) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  auto mine = client->Exec("MINE sales SUPPORT 3");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(mine.value().ok) << mine.value().info;

  Database oracle_db;
  MiningOptions options;
  options.min_support_count = 3;
  auto oracle = SetmMiner(&oracle_db).Mine(TinyTxns(), options);
  ASSERT_TRUE(oracle.ok());
  FrequentItemsets itemsets = std::move(oracle.value().itemsets);
  itemsets.Normalize();
  EXPECT_EQ(mine.value().payload, RenderItemsets(itemsets));
}

TEST(MiningServerTest, ParseErrorKeepsConnectionAlive) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  auto bad = client->Exec("FROBNICATE the database");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().code, "InvalidArgument");

  auto missing = client->Exec("MINE nosuch SUPPORT 2%");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().ok);
  EXPECT_EQ(missing.value().code, "NotFound");

  auto rules = client->Exec("RULES 50");  // no MINE ran on this connection
  ASSERT_TRUE(rules.ok());
  EXPECT_FALSE(rules.value().ok);
  EXPECT_EQ(rules.value().code, "NotFound");

  auto pong = client->Exec("PING");  // all of the above were protocol errors
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(fixture.server->Stats().parse_errors, 1u);
}

TEST(MiningServerTest, OversizedLineRejectedNotDisconnected) {
  ServerOptions options;
  options.max_line_bytes = 64;
  ServerFixture fixture(options);
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine(std::string(500, 'y')).ok());
  auto err = client->ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().code, "ResourceExhausted");

  auto pong = client->Exec("PING");  // framing resynchronized
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(fixture.server->Stats().oversized_lines, 1u);
}

TEST(MiningServerTest, ConnectionLimitRejectsWithError) {
  ServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(options);
  auto first = fixture.Connect();
  ASSERT_TRUE(first->Exec("PING").ok());

  auto second = fixture.Connect();  // accepted then refused at admission
  auto err = second->ReadResponse();
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().code, "ResourceExhausted");
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.rejected_connections == 1; }));

  // The slot frees on disconnect: QUIT the first, the next connect serves.
  ASSERT_TRUE(first->Exec("QUIT").ok());
  first.reset();
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.connections_active == 0; }));
  auto third = fixture.Connect();
  auto pong = third->Exec("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
}

TEST(MiningServerTest, SecondRequestWhileBusyIsRejected) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  ServerFixture fixture(options);
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());  // the job is parked mid-iteration

  // Job verbs are rejected while one is in flight...
  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 40%").ok());
  auto busy = client->ReadResponse();
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy.value().ok);
  EXPECT_EQ(busy.value().code, "ResourceExhausted");

  // ...but PING and STATS are always served from the loop thread.
  ASSERT_TRUE(client->SendLine("PING").ok());
  auto pong = client->ReadResponse();
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().info, "pong");

  gate.Open();
  auto mine = client->ReadResponse();  // the parked job's answer arrives
  ASSERT_TRUE(mine.ok());
  EXPECT_TRUE(mine.value().ok) << mine.value().info;
  EXPECT_EQ(fixture.server->Stats().rejected_busy, 1u);
}

TEST(MiningServerTest, DisconnectMidMineCancelsTheJob) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  ServerFixture fixture(options);

  auto doomed = fixture.Connect();
  ASSERT_TRUE(doomed->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());

  doomed.reset();  // hard close: no QUIT, the job is still parked

  // The loop notices the disconnect and flips the job's cancel flag...
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.disconnects == 1; }));

  // ...and once the job reaches its next iteration, it stops as cancelled.
  gate.Open();
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.cancelled_jobs == 1; }));

  // The server stays healthy for the next client.
  auto client = fixture.Connect();
  auto mine = client->Exec("MINE sales SUPPORT 30%");
  ASSERT_TRUE(mine.ok());
  EXPECT_TRUE(mine.value().ok) << mine.value().info;
}

TEST(MiningServerTest, AppendStreamsRowsAndRemines) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("APPEND sales SUPPORT 3").ok());
  ASSERT_TRUE(client->SendLine("101 3 4 5").ok());
  ASSERT_TRUE(client->SendLine("102 3 4 5").ok());
  ASSERT_TRUE(client->SendLine(".").ok());
  auto appended = client->ReadResponse();
  ASSERT_TRUE(appended.ok());
  ASSERT_TRUE(appended.value().ok) << appended.value().info;
  EXPECT_NE(appended.value().info.find("appended=2"), std::string::npos);
  EXPECT_NE(appended.value().info.find("transactions=12"), std::string::npos);

  // {3 4 5} now has support 5 of 12; the refreshed answer must agree with a
  // direct mine over the grown database.
  TransactionDb grown = TinyTxns();
  grown.push_back({101, {3, 4, 5}});
  grown.push_back({102, {3, 4, 5}});
  Database oracle_db;
  MiningOptions mine_options;
  mine_options.min_support_count = 3;
  auto oracle = SetmMiner(&oracle_db).Mine(grown, mine_options);
  ASSERT_TRUE(oracle.ok());
  FrequentItemsets itemsets = std::move(oracle.value().itemsets);
  itemsets.Normalize();
  EXPECT_EQ(appended.value().payload, RenderItemsets(itemsets));
}

// Every sort of a request spills into a temp space scoped to it, so a
// long-lived server keeps no spill pages between requests: SQL-executor
// mines and APPENDs whose old-partition recount spills leave no temp space
// alive once answered.
TEST(MiningServerTest, SpillingRequestsFreeTheirTempSpaces) {
  DatabaseOptions db_options;
  db_options.sort_memory_bytes = 64;  // every sort of SALES spills
  db_options.temp_pool_frames = 8;
  ServerFixture fixture({}, db_options, "fi");
  auto client = fixture.Connect();

  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  obs::Gauge* live = registry->GetGauge("setm_temp_spaces_live");
  obs::Counter* spilled = registry->GetCounter("setm_sort_spilled_runs_total");
  obs::Counter* full_mines = registry->GetCounter("setm_plan_full_mine_total");
  obs::Counter* derives = registry->GetCounter("setm_plan_delta_derive_total");
  ASSERT_EQ(live->Value(), 0);

  // Each MINE asks for a lower support than the stored run holds, so it is
  // a full setm-sql mine (and its write-back makes the next APPEND a delta
  // derivation). Each APPEND brings a transaction with itemsets the stored
  // run lacks, so the derivation recounts them in the old partition.
  const char* const kAppends[] = {"101 0 6 7", "102 1 5 7", "103 2 8"};
  for (int round = 0; round < 3; ++round) {
    const std::string support = std::to_string(3 - round);
    const uint64_t mines_before = full_mines->Value();
    uint64_t spilled_before = spilled->Value();
    auto mine =
        client->Exec("MINE sales SUPPORT " + support + " ALGO setm-sql");
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(mine.value().ok) << mine.value().info;
    EXPECT_EQ(full_mines->Value(), mines_before + 1) << "round " << round;
    EXPECT_GT(spilled->Value(), spilled_before) << "round " << round;
    EXPECT_EQ(live->Value(), 0) << "round " << round;

    const uint64_t derives_before = derives->Value();
    spilled_before = spilled->Value();
    ASSERT_TRUE(client->SendLine("APPEND sales SUPPORT " + support).ok());
    ASSERT_TRUE(client->SendLine(kAppends[round]).ok());
    ASSERT_TRUE(client->SendLine(".").ok());
    auto appended = client->ReadResponse();
    ASSERT_TRUE(appended.ok());
    ASSERT_TRUE(appended.value().ok) << appended.value().info;
    EXPECT_EQ(derives->Value(), derives_before + 1) << "round " << round;
    EXPECT_GT(spilled->Value(), spilled_before) << "round " << round;
    EXPECT_EQ(live->Value(), 0) << "round " << round;
  }
}

TEST(MiningServerTest, AppendBadRowDrainsBatchAndReportsOnce) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("APPEND sales SUPPORT 3").ok());
  ASSERT_TRUE(client->SendLine("101 3 4 5").ok());
  ASSERT_TRUE(client->SendLine("not a row").ok());
  ASSERT_TRUE(client->SendLine("102 3 4 5").ok());  // still drained quietly
  ASSERT_TRUE(client->SendLine(".").ok());
  auto err = client->ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);  // one ERR for the whole batch, at the "."
  EXPECT_EQ(err.value().code, "InvalidArgument");

  auto pong = client->Exec("PING");  // session is back in command state
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
}

TEST(MiningServerTest, StatsFormatsRender) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  auto text = client->Exec("STATS");
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text.value().ok);
  auto json = client->Exec("STATS json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().payload.find("\"metrics\""), std::string::npos);
  auto prom = client->Exec("STATS prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().payload.find("# TYPE setm_srv_requests_total"),
            std::string::npos);
}

TEST(MiningServerTest, GracefulStopWithIdleConnection) {
  auto fixture = std::make_unique<ServerFixture>();
  auto client = fixture->Connect();
  ASSERT_TRUE(client->Exec("PING").ok());
  fixture.reset();  // Stop() inside must return cleanly with a client open
}

TEST(MiningServerTest, ShutdownCancelsParkedJob) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  options.shutdown_grace_ms = 10000;
  auto fixture = std::make_unique<ServerFixture>(options);
  auto client = fixture->Connect();
  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());

  std::thread stopper([&fixture] { fixture.reset(); });
  gate.Open();  // shutdown cancels the job; the drain completes
  stopper.join();
}

// ------------------------------------------------------- shard sessions

TEST(MiningServerTest, ShardSessionCountsAndFilters) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  // Phase 1, k = 1: the full local item counts of TinyTxns, sorted,
  // min_count = 1 (support is the coordinator's concern, not the shard's).
  auto begin = client->Exec("LCOUNT sales K 1");
  ASSERT_TRUE(begin.ok());
  ASSERT_TRUE(begin.value().ok) << begin.value().info;
  EXPECT_NE(begin.value().info.find("lcount k=1 transactions=10"),
            std::string::npos)
      << begin.value().info;
  EXPECT_EQ(begin.value().payload,
            "0 6\n1 4\n2 4\n3 6\n4 4\n5 3\n6 2\n7 1\n");

  // A malformed phase-2 batch (1-item lines for K 2) is drained and
  // answered with ERR; the run survives.
  auto bad_merge = client->Exec("MERGE K 2\n0\n.");
  ASSERT_TRUE(bad_merge.ok());
  EXPECT_FALSE(bad_merge.value().ok);
  EXPECT_EQ(bad_merge.value().code, "InvalidArgument");

  // Phase 1, k = 2: the local R_1-join candidate counts.
  auto pairs = client->Exec("LCOUNT K 2");
  ASSERT_TRUE(pairs.ok());
  ASSERT_TRUE(pairs.value().ok) << pairs.value().info;
  EXPECT_NE(pairs.value().info.find("lcount k=2 rprime="), std::string::npos);
  // {0,1} occurs in transactions 10, 20 and 30.
  EXPECT_NE(pairs.value().payload.find("0 1 3\n"), std::string::npos)
      << pairs.value().payload;

  // Phase 2, k = 2: the whole global C_2 rides in one request.
  auto merged = client->Exec("MERGE K 2\n0 1\n3 4\n.");
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged.value().ok) << merged.value().info;
  EXPECT_NE(merged.value().info.find("merge k=2 rows="), std::string::npos);

  // The run continues into k = 3 off the filtered R_2.
  auto triples = client->Exec("LCOUNT K 3");
  ASSERT_TRUE(triples.ok());
  EXPECT_TRUE(triples.value().ok) << triples.value().info;
}

TEST(MiningServerTest, ShardContinuationWithoutRunIsNotFound) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  for (const char* line : {"LCOUNT K 2", "MERGE K 2"}) {
    auto response = client->Exec(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response.value().ok) << line;
    EXPECT_EQ(response.value().code, "NotFound") << line;
    EXPECT_NE(response.value().info.find("no shard run"), std::string::npos)
        << response.value().info;
  }
  auto pong = client->Exec("PING");  // protocol errors, connection alive
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
}

TEST(MiningServerTest, UnknownTableNamesAvailableTables) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  // MINE and LCOUNT share the catalog's operator-friendly lookup: the
  // error names the tables that DO exist.
  for (const char* line :
       {"MINE nosuch SUPPORT 2%", "LCOUNT nosuch K 1"}) {
    auto response = client->Exec(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response.value().ok) << line;
    EXPECT_EQ(response.value().code, "NotFound") << line;
    EXPECT_NE(response.value().info.find("available: sales"),
              std::string::npos)
        << response.value().info;
  }
}

}  // namespace
}  // namespace setm::net
