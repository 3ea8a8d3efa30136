#include "inputs.h"

#include <cstdio>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "datagen/retail_generator.h"
#include "datagen/transaction_io.h"

namespace setm::perfbench {

namespace {

// Mixes the run seed with a stream tag so the relabelling of two workloads
// and every append batch draw from independent streams.
uint64_t Stream(uint64_t seed, uint64_t tag) {
  return seed * 0x9E3779B97F4A7C15ull ^ (tag + 0x632BE59BD9B4E019ull);
}

// Gives the transactions the ids 1..N in a seeded random order and
// shuffles their order; `tag` separates the streams of two workloads.
TransactionDb Relabel(TransactionDb db, uint64_t seed, uint64_t tag) {
  Rng rng(Stream(seed, tag));
  std::vector<TransactionId> ids(db.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<TransactionId>(i + 1);
  }
  rng.Shuffle(&ids);
  for (size_t i = 0; i < db.size(); ++i) db[i].id = ids[i];
  rng.Shuffle(&db);
  return db;
}

}  // namespace

TransactionDb QuestD10K(uint64_t seed) {
  QuestOptions options;
  options.num_transactions = 10000;
  options.avg_transaction_size = 10;
  options.num_items = 400;
  options.num_patterns = 60;
  options.avg_pattern_size = 4;
  options.seed = kQuestGeneratorSeed;
  return Relabel(QuestGenerator(options).Generate(), seed, 1);
}

TransactionDb RetailBase(uint64_t seed) {
  RetailOptions options;
  options.seed = kRetailGeneratorSeed;
  return Relabel(RetailGenerator(options).Generate(), seed, 2);
}

TransactionDb AppendBatch(uint64_t seed, size_t index) {
  RetailOptions options;
  options.num_transactions = static_cast<uint32_t>(kAppendBatchSize);
  options.seed = Stream(seed, 1000 + index);
  TransactionDb batch = RetailGenerator(options).Generate();
  const TransactionId first = static_cast<TransactionId>(
      kRetailTransactions + index * kAppendBatchSize + 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = first + static_cast<TransactionId>(i);
  }
  return batch;
}

bool DumpInputs(uint64_t seed, const std::string& dir) {
  auto save = [&](const std::string& name, const TransactionDb& db) {
    const std::string path = dir + "/" + name;
    Status s = SaveTransactionsCsv(path, db);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      return false;
    }
    std::printf("%s\n", path.c_str());
    return true;
  };
  if (!save("quest_d10k.csv", QuestD10K(seed))) return false;
  if (!save("retail.csv", RetailBase(seed))) return false;
  for (size_t j = 0; j < kDumpedAppendBatches; ++j) {
    char name[64];
    std::snprintf(name, sizeof(name), "retail_append_%03zu.csv", j);
    if (!save(name, AppendBatch(seed, j))) return false;
  }
  return true;
}

}  // namespace setm::perfbench
