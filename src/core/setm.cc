#include "core/setm.h"

#include <utility>
#include <vector>

#include "shard/sharded_setm.h"

namespace setm {

Schema SetmMiner::SalesSchema() {
  return Schema({Column{"trans_id", ValueType::kInt32},
                 Column{"item", ValueType::kInt32}});
}

Schema SetmMiner::RkSchema(size_t k) {
  Schema schema;
  schema.AddColumn(Column{"trans_id", ValueType::kInt32});
  for (size_t i = 1; i <= k; ++i) {
    schema.AddColumn(Column{"item" + std::to_string(i), ValueType::kInt32});
  }
  return schema;
}

std::vector<size_t> SetmMiner::TidItemColumns(size_t k) {
  std::vector<size_t> cols;
  cols.reserve(k + 1);
  for (size_t i = 0; i <= k; ++i) cols.push_back(i);
  return cols;
}

Result<Table*> LoadSalesTable(Database* db, const std::string& name,
                              const TransactionDb& transactions,
                              TableBacking backing) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  auto table_or =
      db->catalog()->CreateTable(name, SetmMiner::SalesSchema(), backing);
  if (!table_or.ok()) return table_or.status();
  Table* table = table_or.value();
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) {
      SETM_RETURN_IF_ERROR(table->Insert(
          Tuple({Value::Int32(t.id), Value::Int32(item)})));
    }
  }
  return table;
}

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  // The partitions take their row slices straight from the transaction
  // database; no SALES relation is materialized first.
  std::vector<shard::ShardRow> rows;
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) rows.push_back(shard::ShardRow{t.id, item});
  }
  return shard::MineOnLocalShards(db_, setm_options_, std::move(rows),
                                  options);
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options) {
  std::vector<shard::ShardRow> rows;
  SETM_RETURN_IF_ERROR(shard::ExtractRows(sales, &rows));
  return shard::MineOnLocalShards(db_, setm_options_, std::move(rows),
                                  options);
}

}  // namespace setm
