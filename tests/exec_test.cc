// Unit tests for src/exec: expressions, external sort, joins, aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "exec/exec_context.h"
#include "exec/expression.h"
#include "exec/external_sort.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/table.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

Tuple Row(int a, int b) { return Tuple({Value::Int32(a), Value::Int32(b)}); }

std::unique_ptr<MemTable> MakeTable(const std::vector<std::pair<int, int>>& rows) {
  auto t = std::make_unique<MemTable>("t", TwoIntSchema());
  for (auto [a, b] : rows) EXPECT_TRUE(t->Insert(Row(a, b)).ok());
  return t;
}

std::vector<std::pair<int, int>> Drain(TupleIterator* it) {
  std::vector<std::pair<int, int>> out;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    out.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32());
  }
  return out;
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

TEST(ExpressionTest, ColumnAndConst) {
  Tuple row = Row(3, 9);
  EXPECT_EQ(Col(1)->Eval(row).value().AsInt32(), 9);
  EXPECT_EQ(Const(Value::Int32(5))->Eval(row).value().AsInt32(), 5);
}

TEST(ExpressionTest, Comparisons) {
  Tuple row = Row(3, 9);
  auto check = [&](BinaryOp op, bool expected) {
    auto e = Binary(op, Col(0), Col(1));  // 3 op 9
    EXPECT_EQ(ValueIsTrue(e->Eval(row).value()), expected)
        << BinaryOpName(op);
  };
  check(BinaryOp::kEq, false);
  check(BinaryOp::kNe, true);
  check(BinaryOp::kLt, true);
  check(BinaryOp::kLe, true);
  check(BinaryOp::kGt, false);
  check(BinaryOp::kGe, false);
}

TEST(ExpressionTest, LogicalShortCircuit) {
  Tuple row = Row(1, 0);
  auto t = [] { return Const(Value::Int32(1)); };
  auto f = [] { return Const(Value::Int32(0)); };
  EXPECT_TRUE(ValueIsTrue(
      Binary(BinaryOp::kOr, t(), f())->Eval(row).value()));
  EXPECT_FALSE(ValueIsTrue(
      Binary(BinaryOp::kAnd, f(), t())->Eval(row).value()));
  // RHS with an out-of-range column would error if evaluated; short-circuit
  // must avoid it.
  auto bad = Col(99);
  auto and_sc = Binary(BinaryOp::kAnd, f(), std::move(bad));
  ASSERT_TRUE(and_sc->Eval(row).ok());
  EXPECT_FALSE(ValueIsTrue(and_sc->Eval(row).value()));
}

TEST(ExpressionTest, ColumnOutOfRangeErrors) {
  Tuple row = Row(1, 2);
  EXPECT_FALSE(Col(5)->Eval(row).ok());
}

TEST(ExpressionTest, ConjoinAll) {
  EXPECT_EQ(ConjoinAll({}), nullptr);
  std::vector<ExprPtr> two;
  two.push_back(Const(Value::Int32(1)));
  two.push_back(Const(Value::Int32(1)));
  auto e = ConjoinAll(std::move(two));
  EXPECT_TRUE(ValueIsTrue(e->Eval(Row(0, 0)).value()));
}

// --------------------------------------------------------------------------
// Filter / Project
// --------------------------------------------------------------------------

TEST(OperatorTest, FilterKeepsMatching) {
  auto t = MakeTable({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  FilterIterator filter(t->Scan(),
                        Binary(BinaryOp::kGt, Col(1), Const(Value::Int32(15))));
  EXPECT_EQ(Drain(&filter),
            (std::vector<std::pair<int, int>>{{2, 20}, {3, 30}, {4, 40}}));
}

TEST(OperatorTest, ProjectReorders) {
  auto t = MakeTable({{1, 10}, {2, 20}});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(1));
  exprs.push_back(Col(0));
  Schema out({Column{"b", ValueType::kInt32}, Column{"a", ValueType::kInt32}});
  ProjectIterator project(t->Scan(), std::move(exprs), out);
  EXPECT_EQ(Drain(&project),
            (std::vector<std::pair<int, int>>{{10, 1}, {20, 2}}));
}

// --------------------------------------------------------------------------
// External sort
// --------------------------------------------------------------------------

class ExternalSortTest : public testing::Test {
 protected:
  ExternalSortTest() {
    DatabaseOptions options;
    options.sort_memory_bytes = 1 << 20;
    db_ = std::make_unique<Database>(options);
    ctx_ = ExecContext::From(db_.get());
  }
  std::unique_ptr<Database> db_;
  ExecContext ctx_;
};

TEST_F(ExternalSortTest, InMemorySort) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  for (int i : {5, 3, 9, 1, 7}) ASSERT_TRUE(sort.Add(Row(i, 0)).ok());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  auto rows = Drain(it.value().get());
  EXPECT_EQ(rows, (std::vector<std::pair<int, int>>{
                      {1, 0}, {3, 0}, {5, 0}, {7, 0}, {9, 0}}));
  EXPECT_EQ(sort.stats().spilled_runs, 0u);
}

TEST_F(ExternalSortTest, SpillingSortIsCorrect) {
  ctx_.sort_memory_bytes = 256;  // force many runs
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0, 1}));
  Rng rng(77);
  std::vector<std::pair<int, int>> expected;
  for (int i = 0; i < 5000; ++i) {
    int a = static_cast<int>(rng.Uniform(100));
    int b = static_cast<int>(rng.Uniform(100));
    expected.emplace_back(a, b);
    ASSERT_TRUE(sort.Add(Row(a, b)).ok());
  }
  std::sort(expected.begin(), expected.end());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(Drain(it.value().get()), expected);
  EXPECT_GT(sort.stats().spilled_runs, 1u);
  EXPECT_GT(sort.stats().merge_passes, 0u);  // > 64 runs cascades
}

TEST_F(ExternalSortTest, SortIsStable) {
  ctx_.sort_memory_bytes = 128;
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));  // key: a only
  // Payload b records arrival order within each key.
  for (int round = 0; round < 200; ++round) {
    for (int key = 0; key < 3; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 600u);
  int prev_key = -1, prev_payload = -1;
  for (const auto& [key, payload] : rows) {
    if (key == prev_key) {
      EXPECT_GT(payload, prev_payload) << "stability violated at key " << key;
    } else {
      EXPECT_EQ(key, prev_key + 1);
    }
    prev_key = key;
    prev_payload = payload;
  }
}

// A tiny temp pool caps the merge fan-in, so a moderate run count forces
// cascaded merge passes; order and stability must survive the cascade.
TEST_F(ExternalSortTest, CascadedMergeKeepsOrderAndStability) {
  DatabaseOptions options;
  options.temp_pool_frames = 8;  // effective fan-in: 8 - 4 = 4 runs
  options.sort_memory_bytes = 256;
  Database small(options);
  ExecContext ctx = ExecContext::From(&small);

  ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0}));  // key: a only
  // Payload b records arrival order within each key.
  for (int round = 0; round < 400; ++round) {
    for (int key = 0; key < 4; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  // Runs far exceed the fan-in of 4, so at least two cascade passes ran.
  EXPECT_GT(sort.stats().spilled_runs, 16u);
  EXPECT_GE(sort.stats().merge_passes, 2u);
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 1600u);
  int prev_key = -1, prev_payload = -1;
  for (const auto& [key, payload] : rows) {
    if (key == prev_key) {
      EXPECT_GT(payload, prev_payload) << "stability violated at key " << key;
    } else {
      EXPECT_EQ(key, prev_key + 1);
    }
    prev_key = key;
    prev_payload = payload;
  }
}

// With workers present the independent merge groups of each cascade pass
// run concurrently on the pool; order, stability and content must be
// indistinguishable from the serial cascade.
TEST_F(ExternalSortTest, ParallelCascadedMergeKeepsOrderAndStability) {
  DatabaseOptions options;
  options.temp_pool_frames = 8;  // effective fan-in: 8 - 4 = 4 runs
  options.sort_memory_bytes = 256;
  options.worker_threads = 4;
  Database small(options);
  ExecContext ctx = ExecContext::From(&small);
  ASSERT_NE(ctx.workers, nullptr);

  ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0}));  // key: a only
  for (int round = 0; round < 400; ++round) {
    for (int key = 0; key < 4; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  EXPECT_GT(sort.stats().spilled_runs, 16u);
  EXPECT_GE(sort.stats().merge_passes, 2u);
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 1600u);
  int prev_key = -1, prev_payload = -1;
  for (const auto& [key, payload] : rows) {
    if (key == prev_key) {
      EXPECT_GT(payload, prev_payload) << "stability violated at key " << key;
    } else {
      EXPECT_EQ(key, prev_key + 1);
    }
    prev_key = key;
    prev_payload = payload;
  }
}

// API misuse must surface as Status in every build mode, not corrupt state.
TEST_F(ExternalSortTest, AddAfterFinishFailsWithStatus) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  ASSERT_TRUE(sort.Add(Row(1, 0)).ok());
  ASSERT_TRUE(sort.Finish().ok());
  Status late = sort.Add(Row(2, 0));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kInternal);
}

TEST_F(ExternalSortTest, DoubleFinishFailsWithStatus) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  ASSERT_TRUE(sort.Add(Row(1, 0)).ok());
  ASSERT_TRUE(sort.Finish().ok());
  auto again = sort.Finish();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
}

// With a worker pool in the context, run generation happens off-thread;
// results (order, stability, content) must be indistinguishable.
TEST_F(ExternalSortTest, ParallelRunGenerationMatchesSerial) {
  DatabaseOptions options;
  options.sort_memory_bytes = 512;
  options.worker_threads = 4;
  Database parallel_db(options);
  ExecContext ctx = ExecContext::From(&parallel_db);
  ASSERT_NE(ctx.workers, nullptr);

  ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0}));
  Rng rng(123);
  std::vector<std::pair<int, int>> expected;
  for (int i = 0; i < 4000; ++i) {
    int a = static_cast<int>(rng.Uniform(50));
    expected.emplace_back(a, i);  // payload = arrival order
    ASSERT_TRUE(sort.Add(Row(a, i)).ok());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  EXPECT_GT(sort.stats().spilled_runs, 1u);
  EXPECT_EQ(Drain(it.value().get()), expected);
}

// A spilled stream shares ownership of the temp space its runs live in: it
// stays readable after the sort and every context copy are gone (ASan checks
// for use-after-free), and the space dies with the stream.
TEST(TempSpaceTest, SpilledStreamOutlivesSortAndContexts) {
  DatabaseOptions options;
  options.sort_memory_bytes = 256;
  Database db(options);
  std::weak_ptr<BufferPool> space;
  std::unique_ptr<TupleIterator> stream;
  std::vector<std::pair<int, int>> expected;
  {
    ExecContext ctx = ExecContext::From(&db);
    space = ctx.temp_pool;
    ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0, 1}));
    Rng rng(31);
    for (int i = 0; i < 2000; ++i) {
      const int a = static_cast<int>(rng.Uniform(100));
      expected.emplace_back(a, i);
      ASSERT_TRUE(sort.Add(Row(a, i)).ok());
    }
    auto it = sort.Finish();
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    ASSERT_GT(sort.stats().spilled_runs, 1u);
    stream = std::move(it).value();
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(space.expired());  // held by the stream alone
  EXPECT_EQ(Drain(stream.get()), expected);
  stream.reset();
  EXPECT_TRUE(space.expired());
}

TEST(TempSpaceTest, EachContextGetsItsOwnSpace) {
  DatabaseOptions options;
  options.temp_pool_frames = 12;
  Database db(options);
  obs::Gauge* live =
      obs::MetricsRegistry::Global()->GetGauge("setm_temp_spaces_live");
  const int64_t before = live->Value();
  {
    ExecContext a = ExecContext::From(&db);
    ExecContext b = ExecContext::From(&db);
    EXPECT_NE(a.temp_pool, b.temp_pool);
    EXPECT_EQ(a.temp_pool->capacity(), 12u);
    EXPECT_EQ(b.temp_pool->capacity(), 12u);
    const ExecContext copy = a;  // a copy shares the space
    EXPECT_EQ(copy.temp_pool, a.temp_pool);
    EXPECT_EQ(live->Value(), before + 2);
  }
  EXPECT_EQ(live->Value(), before);
}

TEST_F(ExternalSortTest, EmptyInput) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  Tuple row;
  auto more = it.value()->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST_F(ExternalSortTest, SpillIoLandsInLedger) {
  ctx_.sort_memory_bytes = 256;
  const uint64_t writes_before = db_->io_stats()->page_writes +
                                 db_->io_stats()->pages_allocated;
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(sort.Add(Row(3000 - i, i)).ok());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  Drain(it.value().get());
  EXPECT_GT(db_->io_stats()->page_writes + db_->io_stats()->pages_allocated,
            writes_before);
}

TEST_F(ExternalSortTest, SortIteratorWrapsChild) {
  auto t = MakeTable({{3, 0}, {1, 1}, {2, 2}});
  SortIterator sorted(ctx_, t->Scan(), TupleComparator({0}));
  EXPECT_EQ(Drain(&sorted),
            (std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {3, 0}}));
}

// --------------------------------------------------------------------------
// Merge join
// --------------------------------------------------------------------------

std::vector<std::vector<int>> DrainWide(TupleIterator* it) {
  std::vector<std::vector<int>> out;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    std::vector<int> vals;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      vals.push_back(row.value(i).AsInt32());
    }
    out.push_back(std::move(vals));
  }
  return out;
}

TEST(MergeJoinTest, OneToOne) {
  auto l = MakeTable({{1, 100}, {2, 200}, {4, 400}});
  auto r = MakeTable({{1, -1}, {3, -3}, {4, -4}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_EQ(DrainWide(&join), (std::vector<std::vector<int>>{
                                  {1, 100, 1, -1}, {4, 400, 4, -4}}));
}

TEST(MergeJoinTest, DuplicatesOnBothSidesCrossProduct) {
  auto l = MakeTable({{1, 1}, {1, 2}, {2, 5}});
  auto r = MakeTable({{1, 10}, {1, 20}, {2, 30}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 1, 1, 10},
                                           {1, 1, 1, 20},
                                           {1, 2, 1, 10},
                                           {1, 2, 1, 20},
                                           {2, 5, 2, 30}}));
}

TEST(MergeJoinTest, ResidualFiltersWithinJoin) {
  // The SETM pattern: join on trans_id (col 0), keep q.b > p.b.
  auto l = MakeTable({{1, 10}, {1, 20}});
  auto r = MakeTable({{1, 10}, {1, 20}, {1, 30}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0},
                         Binary(BinaryOp::kGt, Col(3), Col(1)));
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 10, 1, 20},
                                           {1, 10, 1, 30},
                                           {1, 20, 1, 30}}));
}

TEST(MergeJoinTest, EmptyInputs) {
  auto l = MakeTable({});
  auto r = MakeTable({{1, 1}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_TRUE(DrainWide(&join).empty());
  auto l2 = MakeTable({{1, 1}});
  auto r2 = MakeTable({});
  MergeJoinIterator join2(l2->Scan(), r2->Scan(), {0}, {0}, nullptr);
  EXPECT_TRUE(DrainWide(&join2).empty());
}

TEST(MergeJoinTest, MultiColumnKeys) {
  auto l = MakeTable({{1, 1}, {1, 2}, {2, 1}});
  auto r = MakeTable({{1, 1}, {1, 3}, {2, 1}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0, 1}, {0, 1}, nullptr);
  EXPECT_EQ(DrainWide(&join), (std::vector<std::vector<int>>{
                                  {1, 1, 1, 1}, {2, 1, 2, 1}}));
}

TEST(NestedLoopJoinTest, CrossWithResidual) {
  auto l = MakeTable({{1, 0}, {2, 0}});
  auto r = MakeTable({{1, 0}, {2, 0}, {3, 0}});
  NestedLoopJoinIterator join(l->Scan(), r->Scan(),
                              Binary(BinaryOp::kLt, Col(0), Col(2)));
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 0, 2, 0},
                                           {1, 0, 3, 0},
                                           {2, 0, 3, 0}}));
}

// --------------------------------------------------------------------------
// Aggregation
// --------------------------------------------------------------------------

TEST(GroupCountTest, CountsSortedGroups) {
  auto t = MakeTable({{1, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 0}, {3, 0}});
  SortedGroupCountIterator counts(t->Scan(), {0}, 0);
  Tuple row;
  std::vector<std::pair<int, int64_t>> out;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    out.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt64());
  }
  EXPECT_EQ(out, (std::vector<std::pair<int, int64_t>>{{1, 2}, {2, 1}, {3, 3}}));
}

TEST(GroupCountTest, HavingMinCountDropsGroups) {
  auto t = MakeTable({{1, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 0}, {3, 0}});
  SortedGroupCountIterator counts(t->Scan(), {0}, 2);
  Tuple row;
  std::vector<int> kept;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    kept.push_back(row.value(0).AsInt32());
  }
  EXPECT_EQ(kept, (std::vector<int>{1, 3}));
}

TEST(GroupCountTest, MultiColumnGroups) {
  auto t = MakeTable({{1, 1}, {1, 1}, {1, 2}, {2, 1}});
  SortedGroupCountIterator counts(t->Scan(), {0, 1}, 0);
  Tuple row;
  int groups = 0;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++groups;
  }
  EXPECT_EQ(groups, 3);
  EXPECT_EQ(counts.schema().NumColumns(), 3u);
  EXPECT_EQ(counts.schema().column(2).name, "count");
}

TEST(GroupCountTest, EmptyInputProducesNothing) {
  auto t = MakeTable({});
  SortedGroupCountIterator counts(t->Scan(), {0}, 0);
  Tuple row;
  auto more = counts.Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

TEST(HelpersTest, MaterializeIntoAndCollect) {
  auto src = MakeTable({{1, 2}, {3, 4}});
  MemTable dst("dst", TwoIntSchema());
  auto it = src->Scan();
  ASSERT_TRUE(MaterializeInto(it.get(), &dst).ok());
  EXPECT_EQ(dst.num_rows(), 2u);
  auto it2 = dst.Scan();
  auto rows = Collect(it2.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

}  // namespace
}  // namespace setm
