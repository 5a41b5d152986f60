#ifndef PRORP_SQL_TABLE_H_
#define PRORP_SQL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sql/value.h"
#include "storage/durable_tree.h"

namespace prorp::sql {

/// Schema of a ProRP table: named 64-bit integer columns with exactly one
/// primary-key column, which becomes the clustered B+tree key.
struct TableSchema {
  std::string name;
  std::vector<std::string> columns;
  size_t key_index = 0;

  Result<size_t> ColumnIndex(const std::string& column) const;
  size_t num_columns() const { return columns.size(); }
};

/// A single clustered table over a DurableTree.  Rows are fixed-width:
/// the primary key is the tree key, all other columns are packed into the
/// tree value in schema order.
class Table {
 public:
  /// Creates (or, if `dir` already holds durable state, recovers) a table.
  /// `dir` empty => ephemeral.  `tuning`, when given, supplies the storage
  /// knobs (checkpoint threshold, fsync policy, fault plan); its dir and
  /// value_width fields are ignored — they are derived from `dir` and the
  /// schema.
  static Result<std::unique_ptr<Table>> Open(
      TableSchema schema, const std::string& dir,
      const storage::DurableTree::Options* tuning = nullptr);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Inserts a row in schema order.  AlreadyExists on duplicate key.
  Status Insert(const Row& row);

  /// Deletes by primary key.  NotFound if absent.
  Status DeleteByKey(Value key);

  /// Overwrites the non-key columns of the row with this key.
  Status UpdateByKey(Value key, const Row& row);

  /// Visits rows with key in [lo, hi] ascending.  Return false to stop.
  Status ScanKeyRange(Value lo, Value hi,
                      const std::function<bool(const Row&)>& cb) const;

  uint64_t size() const { return tree_->size(); }
  const TableSchema& schema() const { return schema_; }

  /// Logical byte footprint (Figure 10(b) metric).
  uint64_t LogicalSizeBytes() const { return tree_->LogicalSizeBytes(); }

  storage::DurableTree* durable_tree() { return tree_.get(); }
  const storage::DurableTree& durable_tree() const { return *tree_; }

 private:
  Table(TableSchema schema, std::unique_ptr<storage::DurableTree> tree)
      : schema_(std::move(schema)), tree_(std::move(tree)) {}

  std::vector<uint8_t> PackValue(const Row& row) const;
  Row UnpackRow(int64_t key, const uint8_t* value) const;

  TableSchema schema_;
  std::unique_ptr<storage::DurableTree> tree_;
};

}  // namespace prorp::sql

#endif  // PRORP_SQL_TABLE_H_
