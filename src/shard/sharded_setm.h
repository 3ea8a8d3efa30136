#ifndef SETM_SHARD_SHARDED_SETM_H_
#define SETM_SHARD_SHARDED_SETM_H_

#include <vector>

#include "core/miner.h"
#include "core/types.h"
#include "relational/database.h"
#include "shard/local_backend.h"

namespace setm::shard {

/// The SETM executor behind every SetmMiner::Mine / MineTable. SETM reduces
/// mining to external sort and merge-scan join, and both split over
/// disjoint trans_id ranges, so:
///
///   1. `rows` (SALES pairs, any order) are range-partitioned on trans_id
///      into up to `setm_options.num_threads` row-balanced slices (one when
///      it is 0 or 1), never splitting a transaction;
///   2. each slice gets an in-process LocalShardBackend — the same backend
///      that serves LCOUNT/MERGE for remote coordinators;
///   3. DistributedMine drives the two-phase count over them. One slice runs
///      inline on the calling thread; several run on the database's worker
///      pool, or on a private pool for this call when the database has none.
///
/// Itemsets and per-iteration |R'_k|, |R_k|, bytes and |C_k| are the same
/// for any thread count, and equal those of the literal SQL miner
/// (miners_equivalence_test). The returned MiningResult::io is the database
/// ledger's delta, which includes every partition's spill I/O (each spills
/// into a temp pool of its own that records into that ledger).
Result<MiningResult> MineOnLocalShards(Database* db,
                                       const SetmOptions& setm_options,
                                       std::vector<ShardRow> rows,
                                       const MiningOptions& options);

}  // namespace setm::shard

#endif  // SETM_SHARD_SHARDED_SETM_H_
