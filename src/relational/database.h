#ifndef SETM_RELATIONAL_DATABASE_H_
#define SETM_RELATIONAL_DATABASE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/superblock.h"
#include "persist/wal.h"
#include "relational/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/storage_backend.h"

namespace setm {

class WorkerPool;

/// Configuration of a Database instance.
struct DatabaseOptions {
  /// Buffer pool frames for base tables (default 256 frames = 1 MiB).
  size_t pool_frames = 256;
  /// Buffer pool frames of each temp space (sort runs): every
  /// ExecContext::From — one per SQL statement, delta recount, classed mine
  /// or SETM partition run — spills into a private pool of this size.
  size_t temp_pool_frames = 64;
  /// Memory budget for in-memory sort runs, in bytes. The external sort
  /// spills once a run exceeds this budget.
  size_t sort_memory_bytes = 1 << 20;
  /// Worker threads shared by parallel operators (0 = no pool; operators
  /// run serially unless a miner brings its own pool).
  size_t worker_threads = 0;
  /// If non-empty, base tables live in this file instead of RAM, and the
  /// database is durable: pages 0/1 are alternating versioned superblock
  /// slots, every page write goes through a sidecar write-ahead log
  /// (`<file_path>.wal`) before reaching the main file, the catalog is
  /// checkpointed into a manifest chain on every DDL and on close, and
  /// reopening the same path replays the log and rebuilds the catalog with
  /// every heap table re-attached to its page chain. Memory-backed tables
  /// reopen with their name and schema but empty (their rows never left
  /// RAM). Opening a file that is not a SETM database — wrong magic,
  /// unsupported format version, truncated — fails with a descriptive
  /// Status and leaves the file untouched.
  std::string file_path;
  /// Group-commit window for Commit(), in milliseconds. 0 (default) fsyncs
  /// the WAL on every Commit — maximum durability, one fsync per batch.
  /// With a window W, Commit still appends its commit record immediately
  /// but only fsyncs when W has elapsed since the last sync, so many small
  /// batches share one fsync; a crash forgets at most the batches of the
  /// un-synced window, never a torn half-batch. Checkpoints always sync.
  uint64_t wal_commit_window_ms = 0;
  /// Test seam: builds the main-file page store instead of FileBackend
  /// (crash-simulation backends). Must ignore its IoStats argument slot —
  /// the database accounts I/O in the WAL decorator. When set, the
  /// pre-open file sanity checks (stat size) are skipped.
  std::function<Result<std::unique_ptr<StorageBackend>>(
      const std::string& path)>
      backend_factory;
  /// Test seam: builds the WAL file instead of PosixWalFile on
  /// `file_path + ".wal"`.
  std::function<Result<std::unique_ptr<WalFile>>(const std::string& path)>
      wal_factory;
};

/// Owns the full storage stack of one database instance: the I/O ledger,
/// the main page store, its buffer pool and the catalog. Temporary data
/// lives in scoped temp spaces (exec/exec_context.h), not here.
///
/// Typical setup:
///
///     Database db;                       // in-memory, default sizes
///     Table* sales = db.catalog()->CreateTable(
///         "sales", SalesSchema(), TableBacking::kHeap).value();
///
/// File-backed databases survive restarts — and, with the WAL, survive
/// being killed at any instant:
///
///     auto db = Database::Open({.file_path = "sales.db"}).value();
///     // ... create tables, insert, mine ...
///     db->Commit();                      // batch is now crash-durable
///     db->Close();                       // checkpoint, surfaced as Status
class Database {
 public:
  /// Unchecked construction: aborts the process if setup fails (only
  /// possible for file-backed databases — creation failure, or an existing
  /// file that is corrupt or of a foreign format). Production call sites
  /// with a file_path should use Open() and handle the Status.
  explicit Database(DatabaseOptions options = {});

  /// Checked construction. For file-backed options this creates a fresh
  /// database file (with superblock) or validates and reopens an existing
  /// one — replaying any committed write-ahead-log records a crash left
  /// behind; all other failures — unreachable path, bad magic, unsupported
  /// format version, truncated file, corrupt manifest — come back as a
  /// Status and never reinitialize or modify the file.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return catalog_.get(); }
  BufferPool* pool() { return pool_.get(); }
  /// Shared worker pool, or null when options.worker_threads == 0.
  WorkerPool* worker_pool() { return workers_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// True when this database persists to a file (and checkpoints apply).
  bool persistent() const { return persistent_; }

  /// Page tagger for WAL-bypassing scratch storage: every tagged page is
  /// written straight to the main file instead of the write-ahead log.
  /// Null (a no-op to pass around freely) for in-memory databases. Miners
  /// hand this to HeapTable::Create for their intermediate relations
  /// R_k / C_k — relations SETM drops at the end of the run, whose pages
  /// would otherwise bloat the log with data nobody ever replays.
  std::function<void(PageId)> UnloggedPageTagger();

  /// Serializes the live catalog into the manifest chain, materializes this
  /// epoch's logged pages into the main file, publishes a new superblock
  /// slot and truncates the WAL — after a successful return the main file
  /// alone is a complete, reopenable image of the database. Every step is
  /// ordered behind an fsync, so a crash at *any* point leaves either the
  /// previous or the new image intact, never a mix. Invoked automatically
  /// after each DDL and from Close()/the destructor; callers may invoke it
  /// explicitly. When nothing changed since the last checkpoint this is a
  /// no-op (no superblock flip, no file growth). No-op for in-memory
  /// databases.
  Status Checkpoint();

  /// Makes every row appended so far crash-durable: flushes dirty pages
  /// into the WAL, appends a commit record and (subject to
  /// wal_commit_window_ms) fsyncs the log. Far cheaper than a checkpoint —
  /// no manifest rewrite, no superblock flip — and the natural call after
  /// each ingest batch. Replay after a crash restores exactly the
  /// committed batches. No-op for in-memory databases.
  Status Commit();

  /// Final checkpoint, with the Status surfaced (the destructor can only
  /// log). Idempotent; after Close() the destructor does nothing more.
  Status Close();

  /// Checkpoints written so far (diagnostics; 0 for in-memory databases).
  uint64_t checkpoint_count() const { return superblock_.checkpoint_seq; }

  /// The cumulative I/O ledger for all page traffic (base + every temp
  /// space).
  IoStats* io_stats() { return &stats_; }
  const IoStats& io_stats() const { return stats_; }

  /// WAL activity counters since open (all zeros for in-memory databases,
  /// which have no log).
  WalStats wal_stats() const {
    return wal_ != nullptr ? wal_->Stats() : WalStats{};
  }

 private:
  struct UncheckedTag {};
  explicit Database(UncheckedTag);  // defined out of line: members need
                                    // complete types for their destructors

  /// Builds the whole stack; called exactly once, from either constructor
  /// path. Failure leaves the object unusable (Open() discards it).
  Status Init(DatabaseOptions options);
  /// Reads both superblock slots from the inner backend and adopts the
  /// valid one with the highest checkpoint_seq. A NotSupported from either
  /// slot (foreign format version) propagates rather than falling back —
  /// version mismatch is not crash damage.
  Status ReadLiveSuperblock();
  /// First-open path: reserves both superblock slots, seeds slot A and
  /// runs the first checkpoint.
  Status InitializeFreshFile();
  /// Reopen path (after superblock selection and WAL replay): reads the
  /// manifest, rebuilds the catalog with every table re-attached and loads
  /// the free-page list (filtered against everything reachable).
  Status LoadPersistentState();

  DatabaseOptions options_;
  IoStats stats_;
  /// File-backed stack, declaration order = reverse destruction order:
  /// the pool flushes into backend_ (the WAL decorator) on destruction,
  /// which appends to wal_, which reads/writes the real file — so the
  /// decorated pieces must outlive backend_, which must outlive the pool.
  std::unique_ptr<StorageBackend> inner_backend_;  ///< the real main file
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<StorageBackend> backend_;  ///< WalBackend (file) / memory
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WorkerPool> workers_;
  bool persistent_ = false;
  bool closed_ = false;
  Superblock superblock_;
  /// The two manifest chains, alternated copy-on-write: `manifest_pages_`
  /// is the live chain the on-disk superblock references and is never
  /// rewritten in place; each rewriting checkpoint writes into the retired
  /// `spare_manifest_pages_` (allocating on the first round), flips the
  /// superblock to it, then swaps the roles. A crash anywhere inside a
  /// checkpoint therefore leaves the previous catalog image intact.
  std::vector<PageId> manifest_pages_;
  std::vector<PageId> spare_manifest_pages_;
  /// Byte-exact copy of the manifest payload the live chain holds — lets a
  /// checkpoint skip the manifest rewrite (and the chain swap) when the
  /// catalog did not change, which is every data-only checkpoint.
  std::string last_manifest_payload_;
  /// Free-page state. `free_pages_` are durably recorded free (allocatable
  /// now); `pending_free_` were freed this epoch and become allocatable
  /// only after the checkpoint that records them commits — reusing them
  /// earlier would let WAL replay over pages the *previous* durable image
  /// still references. Guarded by free_mutex_; the pool's allocation hook
  /// runs under the pool mutex, so the order pool mutex -> free_mutex_ is
  /// fixed and Checkpoint never calls the pool while holding free_mutex_.
  std::mutex free_mutex_;
  std::vector<PageId> free_pages_;
  std::vector<PageId> pending_free_;
  /// Set for the duration of Checkpoint: the allocation hook stands down so
  /// a manifest rewrite cannot pop pages out of the free list *after* that
  /// list was serialized into the very payload being written.
  std::atomic<bool> in_checkpoint_{false};
  /// Group-commit clock: last WAL fsync issued by Commit().
  std::chrono::steady_clock::time_point last_wal_sync_;
};

}  // namespace setm

#endif  // SETM_RELATIONAL_DATABASE_H_
