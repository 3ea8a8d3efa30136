#ifndef SETM_SHARD_LOCAL_BACKEND_H_
#define SETM_SHARD_LOCAL_BACKEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/setm.h"
#include "exec/exec_context.h"
#include "shard/shard_backend.h"

namespace setm::shard {

/// One SALES row of a shard's slice.
struct ShardRow {
  TransactionId tid = 0;
  ItemId item = 0;
};

/// Appends the (trans_id, item) pairs of a SALES-shaped table to `rows`
/// through one scan; InvalidArgument unless the schema has two columns.
Status ExtractRows(const Table& sales, std::vector<ShardRow>* rows);

/// The in-process shard, and the one SETM executor: runs the SETM pipeline
/// bodies (JoinIntoRkPrime / CountInto / FilterRkPrimeIntoRk of
/// core/setm_pipeline.h) over one SALES slice, reporting full local counts
/// (no group dropped before the merge). Every SetmMiner mine — one
/// partition by default, one per thread with num_threads > 1 — file-shard
/// members and the server-side LCOUNT/MERGE all run on this class, so local
/// and remote shards cannot drift apart. Its calls run on whatever thread
/// the coordinator makes them from: a fan-out pool worker, the caller's own
/// thread (a one-partition mine) or a server job thread.
///
/// The slice comes from one of two sources, chosen before BeginRun:
///   - SetRows(rows): a fixed in-memory slice, sorted once and kept across
///     runs (SetmMiner through MineOnLocalShards, and tests, use this).
///   - BindTable(name): re-extracted from `db`'s catalog at every BeginRun
///     and freed once R_1 is built, so a long-lived backend sees rows
///     appended between runs (the server and file-shard members use this).
///
/// Scratch relations are named "<prefix>r1", "<prefix>r2p", ... — standalone
/// tables that never enter the catalog; kHeap scratch uses unlogged pages.
///
/// Every sort of a run spills into the run's own temp space
/// (ExecContext::From), created at BeginRun and freed at EndRun. Concurrent
/// partitions therefore never contend on one pool mutex, and each sort sees
/// the same frame count (hence the same fan-in) whatever the partition
/// count.
class LocalShardBackend : public ShardBackend {
 public:
  /// `db` is borrowed and must outlive the backend.
  LocalShardBackend(Database* db, std::string name,
                    std::string scratch_prefix = "");

  /// Fixes the slice directly. Rows need not be sorted; they are sorted
  /// here, once, unless they already are.
  void SetRows(std::vector<ShardRow> rows);

  /// Binds the slice to a catalog table, re-read at every BeginRun.
  void BindTable(std::string table_name);

  const std::string& name() const override { return name_; }
  Status BeginRun(const ShardRunOptions& options) override;
  Result<ShardLocalCounts> CountIteration(size_t k) override;
  Result<ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override;
  Status EndRun() override;
  Result<ShardHealth> Health() override;

 private:
  Result<std::unique_ptr<Table>> NewRelation(const std::string& name,
                                             Schema schema);
  void AddCount(const std::vector<ItemId>& items, int64_t count);

  Database* db_;
  std::string name_;
  std::string prefix_;
  std::string table_name_;
  bool bound_to_table_ = false;

  /// The slice in (trans_id, item) order, the order the R'_k join needs.
  /// SetRows-sourced: kept across runs. Table-bound: extracted at BeginRun
  /// and freed once k=1 has built R_1.
  std::vector<ShardRow> rows_;
  ShardRunOptions run_;
  /// Worker-free: backends run on the coordinator's fan-out pool, on the
  /// caller's thread or on a server job thread, and never re-enter a pool
  /// from inside. Its temp space lives between BeginRun and EndRun, so
  /// `ctx_.temp_pool` is non-null exactly while a run is open.
  ExecContext ctx_;

  std::unique_ptr<Table> r1_;        ///< R_1 slice (filtered when asked)
  std::unique_ptr<Table> r_prev_;    ///< R_{k-1}; null means use r1
  std::unique_ptr<Table> rk_prime_;  ///< R'_k awaiting the global filter
  std::unordered_map<std::string, PatternCount> counts_;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_LOCAL_BACKEND_H_
