#include "shard/sharded_setm.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"
#include "exec/worker_pool.h"
#include "shard/coordinator.h"

namespace setm::shard {

Result<MiningResult> MineOnLocalShards(Database* db,
                                       const SetmOptions& setm_options,
                                       std::vector<ShardRow> rows,
                                       const MiningOptions& options) {
  WallTimer total_timer;
  const IoStats io_before = *db->io_stats();

  // Row-balanced trans_id partitioning: sort once, then cut at transaction
  // boundaries.
  std::sort(rows.begin(), rows.end(),
            [](const ShardRow& a, const ShardRow& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.item < b.item;
            });
  uint64_t num_transactions = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].tid != rows[i - 1].tid) ++num_transactions;
  }
  const size_t want = std::max<size_t>(1, setm_options.num_threads);
  const size_t num_shards = static_cast<size_t>(std::min<uint64_t>(
      want, std::max<uint64_t>(1, num_transactions)));
  std::vector<std::vector<ShardRow>> slices(num_shards);
  const size_t target = (rows.size() + num_shards - 1) / num_shards;
  size_t si = 0;
  for (size_t i = 0; i < rows.size();) {
    size_t j = i;
    while (j < rows.size() && rows[j].tid == rows[i].tid) ++j;
    if (slices[si].size() >= target && si + 1 < num_shards) ++si;
    slices[si].insert(slices[si].end(), rows.begin() + i, rows.begin() + j);
    i = j;
  }
  rows.clear();
  rows.shrink_to_fit();

  std::vector<std::unique_ptr<LocalShardBackend>> backends;
  std::vector<ShardBackend*> shards;
  backends.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto backend = std::make_unique<LocalShardBackend>(
        db, "s" + std::to_string(i), "s" + std::to_string(i) + "_");
    backend->SetRows(std::move(slices[i]));
    shards.push_back(backend.get());
    backends.push_back(std::move(backend));
  }

  CoordinatorOptions coord;
  coord.run.storage = setm_options.storage;
  coord.run.count_method = setm_options.count_method;
  // One partition runs inline on the calling thread.
  coord.pool = num_shards > 1 ? db->worker_pool() : nullptr;
  std::unique_ptr<WorkerPool> owned_pool;
  if (coord.pool == nullptr && num_shards > 1) {
    // No point spawning more workers than shards to occupy them.
    owned_pool = std::make_unique<WorkerPool>(
        std::min(setm_options.num_threads, num_shards));
    coord.pool = owned_pool.get();
  }

  auto result = DistributedMine(shards, options, coord);
  if (!result.ok()) return result.status();
  result.value().io = Diff(*db->io_stats(), io_before);
  result.value().total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace setm::shard
