#ifndef SETM_EXEC_EXTERNAL_SORT_H_
#define SETM_EXEC_EXTERNAL_SORT_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "exec/worker_pool.h"
#include "relational/table.h"
#include "relational/tuple.h"
#include "storage/table_heap.h"

namespace setm {

/// Observability counters for one sort.
struct SortStats {
  uint64_t rows = 0;           ///< rows sorted
  uint64_t runs = 0;           ///< sorted runs created (1 if fully in-memory)
  uint64_t spilled_runs = 0;   ///< runs written to temp storage
  uint64_t merge_passes = 0;   ///< intermediate merge passes (0 or more)
};

/// Bounded-memory external merge sort — one of the two primitives Algorithm
/// SETM is made of ("basic steps are sorting and merge scan join").
///
/// Rows are buffered until the configured memory budget is reached, then
/// stable-sorted and spilled as a run (a TableHeap in the context's temp
/// space, so run I/O lands in the database's IoStats ledger). Finish()
/// merges the runs with a bounded fan-in, cascading extra merge passes when
/// the run count exceeds it. The overall sort is stable: equal keys keep
/// arrival order. The stream Finish() returns shares ownership of the temp
/// space, so it stays readable after the sort and its contexts are gone.
///
/// When `ctx.workers` is set, run generation overlaps with row intake:
/// each full buffer is handed to the pool, sorted and spilled off-thread
/// while Add() keeps filling the next buffer. Run order — and therefore
/// stability — is preserved by assigning each run its slot at submission.
/// Cascaded merge passes parallelize the same way: the independent merge
/// groups of one pass (disjoint input runs, independent output runs) are
/// dispatched to the pool and joined at the pass boundary, with outputs
/// slotted in group order so the stability tie-break is unaffected.
///
/// API misuse is reported through Status in every build mode: Add() after
/// Finish() and a second Finish() fail with an Internal error instead of
/// corrupting the sort. Finish() on a sort that never saw a row succeeds
/// and yields an empty stream.
///
///     ExternalSort sort(ctx, schema, TupleComparator({0, 1}));
///     for (...) sort.Add(row);
///     auto it = sort.Finish().value();   // sorted stream
class ExternalSort {
 public:
  ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp);

  /// Buffers one row, spilling if the budget fills. Fails with an Internal
  /// status when called after Finish().
  Status Add(Tuple row);

  /// Completes the sort and returns the sorted stream. A second call fails
  /// with an Internal status.
  Result<std::unique_ptr<TupleIterator>> Finish();

  const SortStats& stats() const { return stats_; }

 private:
  /// A spill slot filled by a worker task; slots keep submission order so
  /// the merge's run-index tie-break stays stable.
  struct PendingRun {
    std::unique_ptr<TableHeap> heap;
  };

  Status SpillRun();
  /// Waits for outstanding spill tasks and moves their heaps into runs_.
  Status CollectPendingRuns();

  ExecContext ctx_;
  Schema schema_;
  TupleComparator cmp_;
  std::vector<Tuple> buffer_;
  size_t buffer_bytes_ = 0;
  std::vector<TableHeap> runs_;
  std::vector<std::unique_ptr<PendingRun>> pending_;
  SortStats stats_;
  bool finished_ = false;
  /// Declared last: its destructor waits for in-flight spill tasks, which
  /// read the members above.
  TaskGroup spill_group_;
};

/// Volcano operator wrapping ExternalSort: drains `child` on first Next().
class SortIterator : public TupleIterator {
 public:
  SortIterator(ExecContext ctx, std::unique_ptr<TupleIterator> child,
               TupleComparator cmp)
      : ctx_(ctx),
        child_(std::move(child)),
        schema_(child_->schema()),
        cmp_(std::move(cmp)) {}

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

  /// Valid after the first Next() call.
  const SortStats& stats() const { return stats_; }

 private:
  ExecContext ctx_;
  std::unique_ptr<TupleIterator> child_;
  Schema schema_;
  TupleComparator cmp_;
  std::unique_ptr<TupleIterator> sorted_;
  SortStats stats_;
};

}  // namespace setm

#endif  // SETM_EXEC_EXTERNAL_SORT_H_
