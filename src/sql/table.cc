#include "sql/table.h"

#include <cstring>

namespace prorp::sql {

Result<size_t> TableSchema::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == column) return i;
  }
  return Status::InvalidArgument("unknown column '" + column + "' in table " +
                                 name);
}

Result<std::unique_ptr<Table>> Table::Open(
    TableSchema schema, const std::string& dir,
    const storage::DurableTree::Options* tuning) {
  if (schema.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  if (schema.key_index >= schema.columns.size()) {
    return Status::InvalidArgument("key_index out of range");
  }
  storage::DurableTree::Options opts;
  if (tuning != nullptr) opts = *tuning;
  opts.dir = dir;
  opts.value_width =
      static_cast<uint32_t>((schema.columns.size() - 1) * sizeof(Value));
  PRORP_ASSIGN_OR_RETURN(auto tree, storage::DurableTree::Open(opts));
  return std::unique_ptr<Table>(
      new Table(std::move(schema), std::move(tree)));
}

std::vector<uint8_t> Table::PackValue(const Row& row) const {
  std::vector<uint8_t> value((schema_.num_columns() - 1) * sizeof(Value));
  size_t slot = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i == schema_.key_index) continue;
    std::memcpy(value.data() + slot * sizeof(Value), &row[i], sizeof(Value));
    ++slot;
  }
  return value;
}

Row Table::UnpackRow(int64_t key, const uint8_t* value) const {
  Row row(schema_.num_columns());
  size_t slot = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i == schema_.key_index) {
      row[i] = key;
    } else {
      std::memcpy(&row[i], value + slot * sizeof(Value), sizeof(Value));
      ++slot;
    }
  }
  return row;
}

Status Table::Insert(const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.name);
  }
  std::vector<uint8_t> value = PackValue(row);
  Status s = tree_->Insert(row[schema_.key_index], value.data());
  if (s.IsAlreadyExists()) {
    return Status::AlreadyExists("duplicate primary key in table " +
                                 schema_.name);
  }
  return s;
}

Status Table::DeleteByKey(Value key) { return tree_->Delete(key); }

Status Table::UpdateByKey(Value key, const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.name);
  }
  if (row[schema_.key_index] != key) {
    return Status::InvalidArgument(
        "UpdateByKey cannot change the primary key");
  }
  std::vector<uint8_t> value = PackValue(row);
  return tree_->Update(key, value.data());
}

Status Table::ScanKeyRange(
    Value lo, Value hi, const std::function<bool(const Row&)>& cb) const {
  return tree_->ScanRange(lo, hi, [&](int64_t key, const uint8_t* value) {
    return cb(UnpackRow(key, value));
  });
}

}  // namespace prorp::sql
