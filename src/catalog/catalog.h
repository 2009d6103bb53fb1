#ifndef ACCORDION_CATALOG_CATALOG_H_
#define ACCORDION_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "vector/data_type.h"
#include "vector/value.h"

namespace accordion {

/// One column of a table schema.
struct ColumnDef {
  std::string name;
  DataType type;
};

/// Table schema plus physical layout metadata (how the table is pre-split
/// across storage nodes, mirroring the paper's Table 1 setup).
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<ColumnDef> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// Channel index of a column name, or -1.
  int ChannelOf(const std::string& column_name) const;

  DataType TypeOf(int channel) const { return columns_[channel].type; }

  std::vector<DataType> ColumnTypes() const;

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
};

/// Physical placement of one table: how many storage nodes hold it and how
/// many splits each node serves (paper Table 1's "partitioning scheme").
struct TableLayout {
  int num_nodes = 1;
  int splits_per_node = 1;
  int TotalSplits() const { return num_nodes * splits_per_node; }
};

/// Per-column statistics: non-null row count (== row count, the engine has
/// no nulls), min/max, and an estimated distinct count from a KMV sketch.
struct ColumnStats {
  DataType type = DataType::kInt64;
  int64_t row_count = 0;
  bool has_min_max = false;  // false for empty columns
  Value min;
  Value max;
  int64_t ndv = 0;

  /// NDV with a floor of 1 for non-empty columns (selectivity math divides
  /// by it).
  double NdvOrOne() const { return ndv > 0 ? static_cast<double>(ndv) : 1.0; }
};

/// Per-table statistics, parallel to the schema's column order. Collected
/// once at load time (the TPC-H catalog bootstrap) and consumed by the
/// cost-based optimizer and by StageSnapshot::scan_total_rows.
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;  // one per schema column
};

/// Name -> schema/layout/statistics registry shared by planner and workers.
class Catalog {
 public:
  void AddTable(TableSchema schema, TableLayout layout);

  Result<TableSchema> GetTable(const std::string& name) const;
  Result<TableLayout> GetLayout(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Attaches load-time statistics to a registered table (replacing any
  /// previous stats).
  void SetStats(const std::string& name, TableStats stats);

  /// Statistics for a table, or nullptr when none were collected. The
  /// pointer stays valid while the catalog lives and stats are not reset.
  const TableStats* GetStats(const std::string& name) const;

 private:
  std::map<std::string, TableSchema> tables_;
  std::map<std::string, TableLayout> layouts_;
  std::map<std::string, TableStats> stats_;
};

}  // namespace accordion

#endif  // ACCORDION_CATALOG_CATALOG_H_
