#ifndef SETM_EXEC_EXEC_CONTEXT_H_
#define SETM_EXEC_EXEC_CONTEXT_H_

#include <cstddef>
#include <memory>

#include "obs/metrics.h"
#include "relational/database.h"
#include "storage/buffer_pool.h"
#include "storage/storage_backend.h"

namespace setm {

class WorkerPool;

/// Spill storage of one statement, request or run — the paper's temporary
/// relations: a MemoryBackend recording into `db`'s IoStats ledger, under a
/// BufferPool of DatabaseOptions::temp_pool_frames frames. Its pages die with
/// it; `db` must outlive it. Gauge setm_temp_spaces_live counts live spaces.
struct TempSpace {
  explicit TempSpace(Database* db)
      : backend(db->io_stats()),
        pool(&backend, db->options().temp_pool_frames) {
    Live()->Add(1);
  }
  ~TempSpace() { Live()->Add(-1); }
  TempSpace(const TempSpace&) = delete;
  TempSpace& operator=(const TempSpace&) = delete;

  static obs::Gauge* Live() {
    static obs::Gauge* live = obs::MetricsRegistry::Global()->GetGauge(
        "setm_temp_spaces_live", "Temp spaces (sort spill storage) alive");
    return live;
  }

  MemoryBackend backend;  ///< declared first: the pool flushes into it
  BufferPool pool;
};

/// Resources physical operators draw on: the temp space for sort runs, the
/// memory budget at which the external sort spills, and an optional worker
/// pool for parallel run generation.
struct ExecContext {
  /// The pool of a TempSpace, owned jointly by every copy of the context
  /// and every sorted stream still reading spilled runs.
  std::shared_ptr<BufferPool> temp_pool;
  size_t sort_memory_bytes = 1 << 20;
  /// When non-null, operators may offload CPU-heavy work (sorting and
  /// writing spill runs) to these workers. Leave null inside tasks that
  /// already run *on* the pool — a task blocking on sub-tasks of the same
  /// pool can starve the queue.
  WorkerPool* workers = nullptr;

  /// Context with a fresh temp space of `db`, its sort budget and its
  /// worker pool.
  static ExecContext From(Database* db) {
    auto space = std::make_shared<TempSpace>(db);
    ExecContext ctx;
    ctx.temp_pool = std::shared_ptr<BufferPool>(space, &space->pool);
    ctx.sort_memory_bytes = db->options().sort_memory_bytes;
    ctx.workers = db->worker_pool();
    return ctx;
  }
};

}  // namespace setm

#endif  // SETM_EXEC_EXEC_CONTEXT_H_
