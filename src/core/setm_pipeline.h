#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/setm.h"
#include "exec/exec_context.h"

namespace setm {

// The join/count/filter bodies of Algorithm SETM, run by the one SETM
// executor: shard::LocalShardBackend (shard/local_backend.cc), which mines
// every partition of SetmMiner (one partition by default) and every
// LCOUNT/MERGE a remote coordinator sends. Each helper is parameterized by
// a sink or membership probe, so the backend decides where partial counts
// go and which C_k a filter probes; the residual predicate, the column
// indices, the projection and the (trans_id, items) sort order live here.

/// Receives the item vector of each candidate row the R'_k join produces.
/// Pass an empty function when the caller counts some other way.
using CountSink = std::function<void(const std::vector<ItemId>& items)>;

/// Membership probe over C_k (keys are ItemsetKey-serialized item vectors).
using CkProbe = std::function<bool(const std::string& key)>;

/// Receives one counted group: its items and the group's count.
using GroupSink = std::function<void(std::vector<ItemId> items,
                                     int64_t count)>;

/// R'_k := merge-scan join of `left` (R_{k-1}, sorted on trans_id, items)
/// with `r1` (R_1) on trans_id, keeping extensions with q.item >
/// p.item_{k-1}, projected to (trans_id, item_1..item_k) and materialized
/// into `rk_prime`. When `sink` is set it sees each produced row's items —
/// how a shard backend aggregates hash counts in the same pass.
Status JoinIntoRkPrime(const Table& left, const Table& r1, size_t k,
                       Table* rk_prime, const CountSink& sink);

/// R_k := rows of `rk_prime` whose item key passes `in_ck` ("simple table
/// look-ups on relation C_k"), sorted back on (trans_id, item_1..item_k)
/// and materialized into `rk`.
Status FilterRkPrimeIntoRk(ExecContext ctx, const Table& rk_prime, size_t k,
                           const CkProbe& in_ck, Table* rk);

/// The filter_r1 ablation body: copies rows of `r1` whose single-item key
/// passes `keep` into `out` (order preserved, so `out` stays sorted).
Status FilterR1Into(const Table& r1, const CkProbe& keep, Table* out);

/// The paper's C_k count: sorts `relation` (an R'_k-shaped relation of
/// width k+1) on its item columns and streams every group, with its count,
/// into `sink`. No group is dropped: support is a global property, so a
/// partition's local counts must all survive to the coordinator's merge.
Status CountInto(ExecContext ctx, const Table& relation, size_t k,
                 const GroupSink& sink);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
