#ifndef EASIA_DB_SCHEMA_H_
#define EASIA_DB_SCHEMA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/datalink_options.h"
#include "db/value.h"

namespace easia::db {

/// One column definition.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kVarchar;
  /// Maximum length for VARCHAR (0 = unbounded).
  size_t size = 0;
  bool not_null = false;
  /// Present only for DATALINK columns.
  std::optional<DatalinkOptions> datalink;

  std::string ToSql() const;
};

/// A foreign-key constraint: `columns` in this table reference
/// `ref_columns` in `ref_table`. Deletion of referenced rows is RESTRICTed.
struct ForeignKeyDef {
  std::vector<std::string> columns;
  std::string ref_table;
  std::vector<std::string> ref_columns;
};

/// Full definition of one table.
struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> primary_key;
  std::vector<ForeignKeyDef> foreign_keys;
  std::vector<std::vector<std::string>> unique_constraints;
  /// For `CREATE TABLE ... PARTITION BY HASH(col) PARTITIONS n`: the hash
  /// partitioning column (must be the table's single primary-key column)
  /// and partition count. Empty/0 for unpartitioned tables. A single-node
  /// Database stores the clause as metadata only; the shard coordinator
  /// (src/db/shard) routes rows by it.
  std::string partition_by;
  int partitions = 0;

  /// Index of a column by name (case-insensitive per SQL), or error.
  Result<size_t> ColumnIndex(std::string_view column_name) const;
  const ColumnDef* FindColumn(std::string_view column_name) const;
  bool IsPrimaryKeyColumn(std::string_view column_name) const;

  std::string ToSql() const;
};

/// References to a table.column from other tables' foreign keys — the
/// metadata behind EASIA's *primary key browsing* ("SIMULATION_KEY links to
/// three tables where it appears as a foreign key").
struct InboundReference {
  std::string from_table;
  std::string from_column;
};

/// The system catalogue: every table definition plus derived FK metadata.
/// The XUIS generator walks this to build the default user interface.
class Catalog {
 public:
  Status AddTable(TableDef def);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  Result<const TableDef*> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// All FK references pointing at `table.column` from other tables.
  std::vector<InboundReference> ReferencesTo(const std::string& table,
                                             const std::string& column) const;

  /// The FK on `table.column`, if that column is (the single column of) a
  /// foreign key. Multi-column FKs report through their first column.
  const ForeignKeyDef* ForeignKeyOn(const std::string& table,
                                    const std::string& column) const;

  size_t TableCount() const { return tables_.size(); }

 private:
  std::map<std::string, TableDef> tables_;
};

}  // namespace easia::db

#endif  // EASIA_DB_SCHEMA_H_
