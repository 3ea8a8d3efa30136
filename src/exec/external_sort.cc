#include "exec/external_sort.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>

#include "common/logging.h"
#include "obs/metrics.h"

namespace setm {

namespace {

/// Folds one finished sort's counters into the process-wide registry.
void FlushSortMetrics(const SortStats& stats) {
  static obs::Counter* rows = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_rows_total", "Rows pushed through external sorts");
  static obs::Counter* runs = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_runs_total", "Sorted runs created by external sorts");
  static obs::Counter* spilled = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_spilled_runs_total",
      "Runs that overflowed the sort budget and spilled to temp storage");
  static obs::Counter* passes = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_merge_passes_total",
      "Cascaded merge passes run by external sorts");
  rows->Increment(stats.rows);
  runs->Increment(stats.runs);
  spilled->Increment(stats.spilled_runs);
  passes->Increment(stats.merge_passes);
}

/// Upper bound on runs merged at once. The effective fan-in is further
/// capped by the temp buffer pool capacity (each run needs its head page
/// resident, like any real external sort); extra runs trigger cascaded
/// merge passes.
constexpr size_t kMaxFanIn = 64;

size_t EffectiveFanIn(const ExecContext& ctx) {
  const size_t frames =
      ctx.temp_pool != nullptr ? ctx.temp_pool->capacity() : kMaxFanIn;
  const size_t budget = frames > 4 ? frames - 4 : 2;  // leave output room
  return std::max<size_t>(2, std::min(kMaxFanIn, budget));
}

/// Streams one spilled run back as tuples.
class RunReader {
 public:
  RunReader(const TableHeap* heap, const Schema* schema)
      : it_(heap->Begin()), schema_(schema) {}

  Result<bool> Next(Tuple* out) {
    if (!it_.Valid()) return false;
    auto t = Tuple::Deserialize(*schema_, it_.record());
    if (!t.ok()) return t.status();
    *out = std::move(t).value();
    SETM_RETURN_IF_ERROR(it_.Next());
    return true;
  }

 private:
  TableHeap::Iterator it_;
  const Schema* schema_;
};

/// Iterator over an owned, already-sorted vector (in-memory fast path).
class VectorIterator : public TupleIterator {
 public:
  VectorIterator(std::vector<Tuple> rows, Schema schema)
      : rows_(std::move(rows)), schema_(std::move(schema)) {}

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_++]);
    return true;
  }
  const Schema& schema() const override { return schema_; }

 private:
  std::vector<Tuple> rows_;
  Schema schema_;
  size_t pos_ = 0;
};

/// K-way merge over owned runs: the streaming final merge and the body of
/// each cascaded merge step. Stability: ties broken by run index, and runs
/// are created in arrival order, so equal keys keep their original order.
/// It shares the temp space the runs live in, so the stream can outlive the
/// sort and every context that created it.
class MergeIterator : public TupleIterator {
 public:
  MergeIterator(std::shared_ptr<BufferPool> temp_pool,
                std::vector<TableHeap> runs, Schema schema, TupleComparator cmp)
      : temp_pool_(std::move(temp_pool)),
        runs_(std::move(runs)),
        schema_(std::move(schema)),
        cmp_(std::move(cmp)),
        heads_(runs_.size()),
        live_(runs_.size(), false) {
    readers_.reserve(runs_.size());
    for (const TableHeap& run : runs_) readers_.emplace_back(&run, &schema_);
  }

  Status Prime() {
    for (size_t i = 0; i < readers_.size(); ++i) {
      SETM_RETURN_IF_ERROR(Advance(i));
    }
    return Status::OK();
  }

  Result<bool> Next(Tuple* out) override {
    // Linear scan over run heads. Fan-in is <= 64 and comparisons are
    // cheap relative to deserialization, so a loser tree is not needed.
    int best = -1;
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!live_[i]) continue;
      if (best < 0 || cmp_.Compare(heads_[i], heads_[best]) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return false;
    *out = std::move(heads_[best]);
    SETM_RETURN_IF_ERROR(Advance(static_cast<size_t>(best)));
    return true;
  }

  const Schema& schema() const override { return schema_; }

 private:
  Status Advance(size_t i) {
    auto more = readers_[i].Next(&heads_[i]);
    if (!more.ok()) return more.status();
    live_[i] = more.value();
    return Status::OK();
  }

  std::shared_ptr<BufferPool> temp_pool_;  ///< declared first: dies last
  std::vector<TableHeap> runs_;
  Schema schema_;
  TupleComparator cmp_;
  std::vector<RunReader> readers_;  ///< point into runs_ and schema_
  std::vector<Tuple> heads_;
  std::vector<bool> live_;
};

/// Merges one group of runs into a single fresh run in temp storage — the
/// body of one cascaded-merge step. Self-contained (pool, schema and
/// comparator are read-only here) so independent groups of a pass can run
/// concurrently on the worker pool.
Result<TableHeap> MergeRunGroup(const std::shared_ptr<BufferPool>& temp_pool,
                                const Schema& schema,
                                const TupleComparator& cmp,
                                std::vector<TableHeap> group) {
  MergeIterator merge(temp_pool, std::move(group), schema, cmp);
  SETM_RETURN_IF_ERROR(merge.Prime());
  auto out_or = TableHeap::Create(temp_pool.get());
  if (!out_or.ok()) return out_or.status();
  TableHeap out = std::move(out_or).value();
  Tuple row;
  std::string record;
  while (true) {
    auto more = merge.Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    record.clear();
    row.SerializeTo(schema, &record);
    auto rid = out.Insert(record);
    if (!rid.ok()) return rid.status();
  }
  return out;
}

}  // namespace

ExternalSort::ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp)
    : ctx_(ctx),
      schema_(std::move(schema)),
      cmp_(std::move(cmp)),
      spill_group_(ctx.workers) {}

Status ExternalSort::Add(Tuple row) {
  if (finished_) {
    return Status::Internal("ExternalSort::Add() called after Finish()");
  }
  ++stats_.rows;
  buffer_bytes_ += row.SerializedSize(schema_);
  buffer_.push_back(std::move(row));
  if (buffer_bytes_ >= ctx_.sort_memory_bytes) {
    SETM_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalSort::SpillRun() {
  if (buffer_.empty()) return Status::OK();
  ++stats_.runs;
  ++stats_.spilled_runs;

  if (ctx_.workers != nullptr) {
    // Hand the full buffer to the pool; the slot keeps submission order so
    // the merge's stability tie-break (run index) is unaffected.
    pending_.push_back(std::make_unique<PendingRun>());
    PendingRun* slot = pending_.back().get();
    auto rows = std::make_shared<std::vector<Tuple>>(std::move(buffer_));
    spill_group_.Submit([this, slot, rows] {
      std::stable_sort(rows->begin(), rows->end(), cmp_);
      auto heap_or = TableHeap::Create(ctx_.temp_pool.get());
      if (!heap_or.ok()) return heap_or.status();
      auto heap = std::make_unique<TableHeap>(std::move(heap_or).value());
      std::string record;
      for (const Tuple& t : *rows) {
        record.clear();
        t.SerializeTo(schema_, &record);
        auto rid = heap->Insert(record);
        if (!rid.ok()) return rid.status();
      }
      slot->heap = std::move(heap);
      return Status::OK();
    });
    buffer_ = {};
    buffer_bytes_ = 0;
    return Status::OK();
  }

  std::stable_sort(buffer_.begin(), buffer_.end(), cmp_);
  auto heap_or = TableHeap::Create(ctx_.temp_pool.get());
  if (!heap_or.ok()) return heap_or.status();
  TableHeap heap = std::move(heap_or).value();
  std::string record;
  for (const Tuple& t : buffer_) {
    record.clear();
    t.SerializeTo(schema_, &record);
    auto rid = heap.Insert(record);
    if (!rid.ok()) return rid.status();
  }
  runs_.push_back(std::move(heap));
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

Status ExternalSort::CollectPendingRuns() {
  if (pending_.empty()) return Status::OK();
  SETM_RETURN_IF_ERROR(spill_group_.Wait());
  for (std::unique_ptr<PendingRun>& slot : pending_) {
    if (slot->heap == nullptr) {
      return Status::Internal("spill task finished without producing a run");
    }
    runs_.push_back(std::move(*slot->heap));
  }
  pending_.clear();
  return Status::OK();
}

Result<std::unique_ptr<TupleIterator>> ExternalSort::Finish() {
  if (finished_) {
    return Status::Internal("ExternalSort::Finish() called twice");
  }
  finished_ = true;

  if (runs_.empty() && pending_.empty()) {
    // Fully in-memory (possibly zero rows — an empty stream, not an error).
    std::stable_sort(buffer_.begin(), buffer_.end(), cmp_);
    if (!buffer_.empty()) stats_.runs = 1;
    FlushSortMetrics(stats_);
    return std::unique_ptr<TupleIterator>(
        std::make_unique<VectorIterator>(std::move(buffer_), schema_));
  }

  SETM_RETURN_IF_ERROR(SpillRun());
  SETM_RETURN_IF_ERROR(CollectPendingRuns());

  // Cascade merge passes while the run count exceeds the fan-in. The
  // groups of one pass read disjoint runs and write independent outputs,
  // so with a worker pool they merge concurrently; slots keep group order,
  // preserving the run-index stability tie-break across passes. Each
  // in-flight group transiently pins up to two temp-pool frames (a reader
  // page, or the two sides of an output page split), so concurrency is
  // capped in waves to keep worst-case pins inside the pool's capacity —
  // otherwise many workers over a tiny pool could hit ResourceExhausted
  // where the serial cascade succeeded.
  const size_t fan_in = EffectiveFanIn(ctx_);
  const size_t pool_frames =
      ctx_.temp_pool != nullptr ? ctx_.temp_pool->capacity() : fan_in;
  const size_t max_concurrent_groups =
      ctx_.workers == nullptr ? 1
                              : std::max<size_t>(1, pool_frames / 2 - 1);
  while (runs_.size() > fan_in) {
    ++stats_.merge_passes;
    const size_t num_groups = (runs_.size() + fan_in - 1) / fan_in;
    std::vector<std::optional<TableHeap>> next(num_groups);
    TaskGroup merge_tasks(ctx_.workers);
    size_t in_flight = 0;
    size_t i = 0;
    for (size_t slot = 0; slot < num_groups; ++slot) {
      const size_t take = std::min(fan_in, runs_.size() - i);
      if (take == 1) {
        next[slot] = std::move(runs_[i]);
        ++i;
        continue;
      }
      auto group = std::make_shared<std::vector<TableHeap>>();
      group->reserve(take);
      for (size_t j = 0; j < take; ++j) {
        group->push_back(std::move(runs_[i + j]));
      }
      i += take;
      std::optional<TableHeap>* out = &next[slot];
      if (in_flight == max_concurrent_groups) {
        SETM_RETURN_IF_ERROR(merge_tasks.Wait());
        in_flight = 0;
      }
      ++in_flight;
      merge_tasks.Submit([this, group, out] {
        auto merged =
            MergeRunGroup(ctx_.temp_pool, schema_, cmp_, std::move(*group));
        if (!merged.ok()) return merged.status();
        *out = std::move(merged).value();
        return Status::OK();
      });
    }
    SETM_RETURN_IF_ERROR(merge_tasks.Wait());
    std::vector<TableHeap> collected;
    collected.reserve(num_groups);
    for (std::optional<TableHeap>& run : next) {
      if (!run.has_value()) {
        return Status::Internal("merge task finished without producing a run");
      }
      collected.push_back(std::move(*run));
    }
    runs_ = std::move(collected);
  }

  auto merge = std::make_unique<MergeIterator>(ctx_.temp_pool,
                                               std::move(runs_), schema_, cmp_);
  SETM_RETURN_IF_ERROR(merge->Prime());
  FlushSortMetrics(stats_);
  return std::unique_ptr<TupleIterator>(std::move(merge));
}

Result<bool> SortIterator::Next(Tuple* out) {
  if (!sorted_) {
    ExternalSort sort(ctx_, schema_, cmp_);
    Tuple row;
    while (true) {
      auto more = child_->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      SETM_RETURN_IF_ERROR(sort.Add(std::move(row)));
    }
    auto sorted_or = sort.Finish();
    if (!sorted_or.ok()) return sorted_or.status();
    sorted_ = std::move(sorted_or).value();
    stats_ = sort.stats();
  }
  return sorted_->Next(out);
}

}  // namespace setm
