#include "relational/database.h"

#include <sys/stat.h>

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "exec/worker_pool.h"
#include "persist/catalog_codec.h"
#include "persist/manifest.h"

namespace setm {

namespace {

/// Clears an atomic flag on scope exit (Checkpoint's many error returns).
class ScopedFlag {
 public:
  explicit ScopedFlag(std::atomic<bool>* flag) : flag_(flag) {
    flag_->store(true, std::memory_order_release);
  }
  ~ScopedFlag() { flag_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* flag_;
};

}  // namespace

Database::~Database() {
  if (persistent_ && !closed_ && catalog_ != nullptr) {
    Status s = Checkpoint();
    if (!s.ok()) {
      SETM_LOG(kError) << "checkpoint on close failed (data since the last "
                          "successful checkpoint may be lost): "
                       << s.ToString();
    }
  }
}

Database::Database(UncheckedTag) {}

Database::Database(DatabaseOptions options) {
  Status s = Init(std::move(options));
  if (!s.ok()) {
    SETM_LOG(kError) << "database setup failed: " << s.ToString()
                     << " (use Database::Open for a checked Status)";
  }
  SETM_CHECK(s.ok());
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database(UncheckedTag{}));
  SETM_RETURN_IF_ERROR(db->Init(std::move(options)));
  return db;
}

Status Database::Init(DatabaseOptions options) {
  options_ = std::move(options);
  const bool file_backed = !options_.file_path.empty();
  bool fresh = false;
  if (file_backed) {
    if (!options_.backend_factory) {
      // Refuse to touch existing files that cannot possibly be SETM
      // databases before open() gets a chance to modify them. A partial
      // superblock (size below one page) or a size that is not a whole
      // number of pages means truncation or a foreign file.
      struct stat st;
      if (::stat(options_.file_path.c_str(), &st) == 0 && st.st_size > 0) {
        const uint64_t size = static_cast<uint64_t>(st.st_size);
        if (size < kPageSize) {
          return Status::Corruption(
              "file '" + options_.file_path + "' holds " +
              std::to_string(size) +
              " bytes — too small for a superblock; refusing to "
              "reinitialize");
        }
        if (size % kPageSize != 0) {
          return Status::Corruption(
              "file '" + options_.file_path + "' holds " +
              std::to_string(size) + " bytes, not a whole number of " +
              std::to_string(kPageSize) + "-byte pages (truncated?)");
        }
      }
    }
    // The inner backend carries no IoStats — all accounting happens in the
    // WAL decorator, or pages written both to the log and (at checkpoint)
    // to the file would count twice.
    if (options_.backend_factory) {
      auto inner_or = options_.backend_factory(options_.file_path);
      if (!inner_or.ok()) return inner_or.status();
      inner_backend_ = std::move(inner_or).value();
    } else {
      auto inner_or = FileBackend::Open(options_.file_path,
                                        /*stats=*/nullptr,
                                        /*truncate=*/false);
      if (!inner_or.ok()) return inner_or.status();
      inner_backend_ = std::move(inner_or).value();
    }
    if (options_.wal_factory) {
      auto wal_or = options_.wal_factory(options_.file_path);
      if (!wal_or.ok()) return wal_or.status();
      wal_ = std::make_unique<Wal>(std::move(wal_or).value());
    } else {
      auto wal_or = PosixWalFile::Open(options_.file_path + ".wal");
      if (!wal_or.ok()) return wal_or.status();
      wal_ = std::make_unique<Wal>(std::move(wal_or).value());
    }

    fresh = inner_backend_->NumPages() == 0;
    if (!fresh) {
      SETM_RETURN_IF_ERROR(ReadLiveSuperblock());
      // Replay the epoch the crash interrupted: records stamped one past
      // the live superblock's seq, up to their last durable commit record.
      wal_->SetEpoch(superblock_.checkpoint_seq + 1);
      uint64_t replayed = 0;
      SETM_RETURN_IF_ERROR(wal_->Recover(superblock_.checkpoint_seq + 1,
                                         inner_backend_.get(), &replayed));
      if (replayed > 0) {
        SETM_LOG(kInfo) << "WAL replay restored " << replayed
                        << " committed page(s) into '" << options_.file_path
                        << "'";
      }
      // Replay can only have grown the file, so this still catches
      // externally truncated files.
      if (superblock_.page_count > inner_backend_->NumPages()) {
        return Status::Corruption(
            "file '" + options_.file_path +
            "' was truncated: superblock records " +
            std::to_string(superblock_.page_count) + " pages but only " +
            std::to_string(inner_backend_->NumPages()) + " remain");
      }
    }
    backend_ =
        std::make_unique<WalBackend>(inner_backend_.get(), wal_.get(),
                                     &stats_);
  } else {
    backend_ = std::make_unique<MemoryBackend>(&stats_);
  }
  pool_ = std::make_unique<BufferPool>(backend_.get(), options_.pool_frames);
  catalog_ = std::make_unique<Catalog>(pool_.get());
  if (options_.worker_threads > 0) {
    workers_ = std::make_unique<WorkerPool>(options_.worker_threads);
  }

  if (file_backed) {
    last_wal_sync_ = std::chrono::steady_clock::now();
    if (fresh) {
      persistent_ = true;  // Checkpoint() below needs it; the file is ours
      SETM_RETURN_IF_ERROR(InitializeFreshFile());
    } else {
      // persistent_ stays false until the file validates: a failed Open
      // must never checkpoint over (and thereby reinitialize) a rejected
      // file from the destructor.
      SETM_RETURN_IF_ERROR(LoadPersistentState());
      persistent_ = true;
    }
    catalog_->SetCheckpointHook([this] { return Checkpoint(); });
    catalog_->SetUnloggedPageHook(UnloggedPageTagger());
    catalog_->SetFreePagesHook([this](std::vector<PageId> pages) {
      // A freed page loses its unlogged mark before it can be reallocated:
      // its next owner may be a logged table whose writes must hit the WAL.
      auto* wal_backend = static_cast<WalBackend*>(backend_.get());
      for (PageId id : pages) wal_backend->ClearUnlogged(id);
      std::lock_guard<std::mutex> lock(free_mutex_);
      pending_free_.insert(pending_free_.end(), pages.begin(), pages.end());
    });
    pool_->SetAllocationHook([this]() -> PageId {
      // Stand down during checkpoints: the free list was already serialized
      // into the manifest payload being written, so popping from it now
      // would hand out a page the durable-in-a-moment image calls free.
      if (in_checkpoint_.load(std::memory_order_acquire)) {
        return kInvalidPageId;
      }
      std::lock_guard<std::mutex> lock(free_mutex_);
      if (free_pages_.empty()) return kInvalidPageId;
      PageId id = free_pages_.back();
      free_pages_.pop_back();
      return id;
    });
  }
  return Status::OK();
}

Status Database::ReadLiveSuperblock() {
  Superblock slots[2];
  Status status[2] = {Status::OK(), Status::OK()};
  Page page;
  for (PageId id : {kSuperblockPageId, kSuperblockSlotBPageId}) {
    if (id >= inner_backend_->NumPages()) {
      status[id] = Status::Corruption("superblock slot " + std::to_string(id) +
                                      " lies beyond the file");
      continue;
    }
    status[id] = inner_backend_->ReadPage(id, &page);
    if (status[id].ok()) {
      status[id] = DecodeSuperblock(page, &slots[id]);
    }
  }
  // A cleanly decoded slot of a foreign format version is not crash damage
  // — never "fall back" past it to the sibling.
  for (const Status& s : status) {
    if (s.code() == StatusCode::kNotSupported) return s;
  }
  int live = -1;
  for (int i = 0; i < 2; ++i) {
    if (!status[i].ok()) continue;
    if (live < 0 || slots[i].checkpoint_seq > slots[live].checkpoint_seq) {
      live = i;
    }
  }
  if (live < 0) {
    // Both slots bad: slot A's diagnosis is the canonical one (it is what a
    // foreign or garbage file trips first).
    return status[0];
  }
  superblock_ = slots[live];
  return Status::OK();
}

Status Database::InitializeFreshFile() {
  // A stale sidecar log (the database file was deleted, its .wal not) must
  // not replay into this unrelated fresh file.
  SETM_RETURN_IF_ERROR(wal_->Reset());
  // Reserve both slots before writing either, so every later checkpoint
  // can write its slot without extending the file. A crash in between
  // leaves a file with no valid slot, which correctly refuses to open.
  for (PageId expect : {kSuperblockPageId, kSuperblockSlotBPageId}) {
    auto id_or = inner_backend_->AllocatePage();
    if (!id_or.ok()) return id_or.status();
    if (id_or.value() != expect) {
      return Status::Internal("superblock slot allocation landed on page " +
                              std::to_string(id_or.value()) +
                              " of a supposedly empty file");
    }
  }
  superblock_.page_count = inner_backend_->NumPages();
  Page page;
  EncodeSuperblock(superblock_, &page);  // seq 0 -> slot A
  SETM_RETURN_IF_ERROR(inner_backend_->WritePage(kSuperblockPageId, page));
  SETM_RETURN_IF_ERROR(inner_backend_->Sync());
  wal_->SetEpoch(superblock_.checkpoint_seq + 1);
  // First checkpoint: writes the (empty) manifest, publishes slot B with
  // seq 1, so even an immediately-killed process leaves a reopenable file.
  return Checkpoint();
}

Status Database::LoadPersistentState() {
  if (superblock_.manifest_root == kInvalidPageId) {
    return Status::OK();  // checkpointed before any DDL: empty catalog
  }
  if (superblock_.manifest_root >= backend_->NumPages()) {
    return Status::Corruption(
        "superblock points the catalog manifest at page " +
        std::to_string(superblock_.manifest_root) + ", beyond the file's " +
        std::to_string(backend_->NumPages()) + " pages");
  }
  auto payload_or =
      ReadManifest(pool_.get(), superblock_.manifest_root,
                   backend_->NumPages(), &manifest_pages_);
  if (!payload_or.ok()) return payload_or.status();
  auto snapshot_or = DecodeCatalogSnapshot(payload_or.value());
  if (!snapshot_or.ok()) return snapshot_or.status();

  // Collect the retired chain's pages for checkpoint reuse — without this
  // every process generation would orphan one chain and the file would
  // grow per reopen. Best-effort: the spare chain may be half-rewritten
  // remains of a crashed checkpoint, so a failed walk just means starting
  // from fresh pages; and any id overlapping the live chain (conceivable
  // only in a corrupted file) must not be reused in place.
  if (superblock_.spare_manifest_root != kInvalidPageId &&
      superblock_.spare_manifest_root < backend_->NumPages()) {
    std::vector<PageId> spare;
    auto spare_or = ReadManifest(pool_.get(), superblock_.spare_manifest_root,
                                 backend_->NumPages(), &spare);
    if (spare_or.ok()) {
      for (PageId id : spare) {
        const bool live = id <= kSuperblockSlotBPageId ||
                          std::find(manifest_pages_.begin(),
                                    manifest_pages_.end(),
                                    id) != manifest_pages_.end();
        if (!live) spare_manifest_pages_.push_back(id);
      }
    }
  }

  // Old chains of unlogged heap tables: walked best-effort after every
  // table is attached, then reclaimed page-by-page where provably safe.
  std::vector<PageId> unlogged_reclaim_candidates;
  for (const PersistedTableMeta& meta : snapshot_or.value().tables) {
    std::unique_ptr<Table> table;
    if (meta.backing == TableBacking::kMemory) {
      // Rows of memory tables never reached the file; the table reopens
      // with its schema, empty.
      table = std::make_unique<MemTable>(meta.name, meta.schema);
    } else if (meta.unlogged) {
      // Unlogged chains were written without WAL protection, so after an
      // unclean exit their pages may be torn. The table's contract is
      // "reopens empty": attach a fresh chain and try to reclaim the old
      // one. A walk failure (torn link) downgrades to a leak, never to a
      // failed open — and pages a torn link claims are filtered against
      // everything reachable before they may be reused.
      if (meta.first_page != kInvalidPageId &&
          meta.first_page < backend_->NumPages()) {
        std::vector<PageId> chain;
        Status walk = TableHeap::CollectChainPages(pool_.get(),
                                                   meta.first_page, &chain);
        if (walk.ok()) {
          unlogged_reclaim_candidates.insert(
              unlogged_reclaim_candidates.end(), chain.begin(), chain.end());
        } else {
          SETM_LOG(kWarn) << "unlogged table '" << meta.name
                          << "': old chain not reclaimed (" << walk.ToString()
                          << "); its pages leak";
        }
      }
      auto table_or = HeapTable::Create(meta.name, meta.schema, pool_.get(),
                                        UnloggedPageTagger());
      if (!table_or.ok()) return table_or.status();
      table = std::move(table_or).value();
    } else {
      if (meta.first_page == kInvalidPageId ||
          meta.first_page >= backend_->NumPages()) {
        return Status::Corruption(
            "table '" + meta.name + "': manifest roots its heap at page " +
            std::to_string(meta.first_page) + ", beyond the file's " +
            std::to_string(backend_->NumPages()) + " pages");
      }
      auto table_or = HeapTable::Open(meta.name, meta.schema, pool_.get(),
                                      meta.first_page, meta.row_count);
      if (!table_or.ok()) return table_or.status();
      table = std::move(table_or).value();
    }
    table->set_unlogged(meta.unlogged);
    SETM_RETURN_IF_ERROR(catalog_->AttachTable(std::move(table)));
  }

  // Load the free-page list, but only after filtering it against every
  // page something still reaches — superblock slots, both manifest chains
  // and every attached heap chain. A free list entry that is actually live
  // (conceivable only after corruption, or a bug) would otherwise get
  // reused while referenced; dropping it merely leaks a page.
  std::unordered_set<PageId> reachable = {kSuperblockPageId,
                                          kSuperblockSlotBPageId};
  reachable.insert(manifest_pages_.begin(), manifest_pages_.end());
  reachable.insert(spare_manifest_pages_.begin(), spare_manifest_pages_.end());
  for (const std::string& name : catalog_->TableNames()) {
    auto table_or = catalog_->GetTable(name);
    if (!table_or.ok()) return table_or.status();
    if (const auto* heap = dynamic_cast<const HeapTable*>(table_or.value())) {
      std::vector<PageId> chain;
      SETM_RETURN_IF_ERROR(heap->AppendChainPages(&chain));
      reachable.insert(chain.begin(), chain.end());
    }
  }
  // Reclaim the old chains of unlogged tables: only pages nothing reachable
  // claims may re-enter circulation (a torn unlogged page could hold a
  // garbage next pointer into a live chain — those ids get dropped here).
  // They join pending_free_, becoming allocatable after the next checkpoint.
  if (!unlogged_reclaim_candidates.empty()) {
    std::vector<PageId> reclaim;
    for (PageId id : unlogged_reclaim_candidates) {
      if (id > kSuperblockSlotBPageId && id < backend_->NumPages() &&
          reachable.count(id) == 0) {
        reachable.insert(id);  // dedup within the candidates themselves
        reclaim.push_back(id);
      }
    }
    SETM_LOG(kInfo) << "reclaimed " << reclaim.size()
                    << " page(s) from unlogged table chains";
    std::lock_guard<std::mutex> lock(free_mutex_);
    pending_free_.insert(pending_free_.end(), reclaim.begin(), reclaim.end());
  }

  uint64_t filtered = 0;
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    for (PageId id : snapshot_or.value().free_pages) {
      if (id <= kSuperblockSlotBPageId || id >= backend_->NumPages() ||
          reachable.count(id) != 0) {
        ++filtered;
        continue;
      }
      free_pages_.push_back(id);
    }
  }
  if (filtered > 0) {
    SETM_LOG(kWarn) << "dropped " << filtered
                       << " free-list entr(ies) that are reachable or out of "
                          "range (leaked, not reused)";
  }
  last_manifest_payload_ = std::move(payload_or).value();
  return Status::OK();
}

std::function<void(PageId)> Database::UnloggedPageTagger() {
  if (options_.file_path.empty() || backend_ == nullptr) return nullptr;
  auto* wal_backend = static_cast<WalBackend*>(backend_.get());
  return [wal_backend](PageId id) { wal_backend->MarkUnlogged(id); };
}

Status Database::Commit() {
  if (!persistent_) return Status::OK();
  // Push this batch's dirty pages into the log, then mark the batch
  // boundary. Replay applies whole marked batches only, so a crash between
  // the records and the marker loses the batch as a unit, never half.
  SETM_RETURN_IF_ERROR(pool_->FlushAll());
  if (wal_->NeedsCommitMarker()) {
    SETM_RETURN_IF_ERROR(wal_->AppendCommit());
  }
  if (wal_->HasUnsyncedData()) {
    const auto now = std::chrono::steady_clock::now();
    const bool window_elapsed =
        options_.wal_commit_window_ms == 0 ||
        now - last_wal_sync_ >=
            std::chrono::milliseconds(options_.wal_commit_window_ms);
    if (window_elapsed) {
      SETM_RETURN_IF_ERROR(wal_->Sync());
      last_wal_sync_ = now;
    }
  }
  return Status::OK();
}

Status Database::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (!persistent_) return Status::OK();
  return Checkpoint();
}

Status Database::Checkpoint() {
  if (!persistent_) return Status::OK();
  ScopedFlag checkpoint_scope(&in_checkpoint_);

  CatalogSnapshot snapshot;
  for (const std::string& name : catalog_->TableNames()) {
    auto table_or = catalog_->GetTable(name);
    if (!table_or.ok()) return table_or.status();
    const Table* table = table_or.value();
    PersistedTableMeta meta;
    meta.name = name;
    meta.schema = table->schema();
    meta.row_count = table->num_rows();
    meta.size_bytes = table->size_bytes();
    meta.num_pages = table->num_pages();
    meta.unlogged = table->unlogged();
    if (const auto* heap = dynamic_cast<const HeapTable*>(table)) {
      meta.backing = TableBacking::kHeap;
      meta.first_page = heap->first_page();
      meta.last_page = heap->last_page();
    } else {
      meta.backing = TableBacking::kMemory;
    }
    snapshot.tables.push_back(std::move(meta));
  }
  // The durable free list: pages already free plus this epoch's pending
  // ones — the checkpoint that is about to commit is exactly what makes
  // the pending pages safe to reuse.
  std::vector<PageId> pending_copy;
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    pending_copy = pending_free_;
    snapshot.free_pages = free_pages_;
  }
  snapshot.free_pages.insert(snapshot.free_pages.end(), pending_copy.begin(),
                             pending_copy.end());
  std::sort(snapshot.free_pages.begin(), snapshot.free_pages.end());
  std::string payload = EncodeCatalogSnapshot(snapshot);

  // Nothing changed since the last checkpoint? Then there is nothing to
  // make durable: no manifest rewrite, no superblock flip, no file growth.
  // (checkpoint_seq > 0 keeps the very first checkpoint unconditional.)
  if (superblock_.checkpoint_seq > 0 && payload == last_manifest_payload_ &&
      pool_->DirtyPageCount() == 0 && !wal_->HasRecords()) {
    return Status::OK();
  }

  // Copy-on-write: when the catalog changed, the new manifest goes into
  // the *retired* chain (fresh pages on the first rounds), never over the
  // live one the on-disk superblock still references. On any failure below
  // the written-to pages stay the spare for the retry and the live chain
  // is untouched. When the payload is byte-identical to the live manifest
  // (a data-only checkpoint), the rewrite is skipped entirely and the
  // chains keep their roles.
  const bool rewrite_manifest =
      payload != last_manifest_payload_ || manifest_pages_.empty();
  std::vector<PageId> chain;
  std::vector<PageId> released;
  PageId new_root = superblock_.manifest_root;
  PageId new_spare_root = superblock_.spare_manifest_root;
  if (rewrite_manifest) {
    chain = std::move(spare_manifest_pages_);
    spare_manifest_pages_.clear();
    auto root_or = WriteManifest(pool_.get(), payload, &chain, &released);
    if (!root_or.ok()) {
      spare_manifest_pages_ = std::move(chain);
      return root_or.status();
    }
    new_root = root_or.value();
    new_spare_root =
        manifest_pages_.empty() ? kInvalidPageId : manifest_pages_.front();
  }
  auto restore_spare = [&] {
    if (rewrite_manifest) spare_manifest_pages_ = std::move(chain);
  };

  // From here the ordering is the whole point; each step is durable before
  // the next starts:
  //   1. every dirty page -> WAL, commit record, fsync the log;
  //   2. logged images -> main file, fsync it;
  //   3. new superblock -> the *other* slot, fsync again;
  //   4. truncate the log.
  // A crash after 1 replays into the old image (old superblock still
  // live); after 2 likewise (replay rewrites the same bytes); after 3 the
  // new superblock wins and the stale log is ignored by its epoch tag;
  // after 4 the checkpoint simply happened.
  Status step = pool_->FlushAll();
  if (step.ok() && wal_->NeedsCommitMarker()) step = wal_->AppendCommit();
  if (step.ok()) step = wal_->Sync();
  if (step.ok()) step = wal_->Materialize(inner_backend_.get());
  if (step.ok()) step = inner_backend_->Sync();
  if (!step.ok()) {
    restore_spare();
    return step;
  }

  Superblock next = superblock_;
  next.manifest_root = new_root;
  next.spare_manifest_root = new_spare_root;
  next.page_count = inner_backend_->NumPages();
  next.checkpoint_seq = superblock_.checkpoint_seq + 1;
  next.free_page_count = snapshot.free_pages.size();
  Page slot_page;
  EncodeSuperblock(next, &slot_page);
  // Alternating slots: the previous checkpoint's superblock is never the
  // write target, so a torn write here can only damage a slot that was
  // already dead. A failed retry recomputes the same seq and hits the same
  // slot — the live one stays untouched no matter how often this fails.
  const PageId slot = static_cast<PageId>(next.checkpoint_seq % 2);
  step = inner_backend_->WritePage(slot, slot_page);
  if (step.ok()) step = inner_backend_->Sync();
  if (!step.ok()) {
    restore_spare();
    return step;
  }
  superblock_ = next;

  // The epoch is sealed: drop the log and stamp the next epoch's records
  // with the seq a future replay (against the just-published superblock)
  // will look for. A failure here is reported but not fatal to the image —
  // the stale log cannot replay (wrong epoch) and the next checkpoint
  // retries the truncation.
  Status reset = wal_->Reset();
  wal_->SetEpoch(superblock_.checkpoint_seq + 1);
  if (!reset.ok()) {
    SETM_LOG(kWarn) << "WAL truncation after checkpoint failed "
                          "(harmless for consistency, retried next "
                          "checkpoint): "
                       << reset.ToString();
  }

  if (rewrite_manifest) {
    spare_manifest_pages_ = std::move(manifest_pages_);
    manifest_pages_ = std::move(chain);
  }
  last_manifest_payload_ = std::move(payload);
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    // The pending pages this checkpoint recorded are now allocatable; the
    // manifest shrink's surplus joins the *next* checkpoint's pending set.
    pending_free_.erase(pending_free_.begin(),
                        pending_free_.begin() +
                            static_cast<ptrdiff_t>(pending_copy.size()));
    free_pages_.insert(free_pages_.end(), pending_copy.begin(),
                       pending_copy.end());
    pending_free_.insert(pending_free_.end(), released.begin(),
                         released.end());
  }
  return Status::OK();
}

}  // namespace setm
