#ifndef ACCORDION_TPCH_TPCH_H_
#define ACCORDION_TPCH_TPCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "vector/page.h"

namespace accordion {

/// Deterministic synthetic TPC-H data substrate.
///
/// The paper evaluates on TPC-H SF100 stored as CSV, manually divided into
/// splits across 10 storage nodes (Table 1). dbgen and 107 GB of disk are
/// not available offline, so this module regenerates the 8 tables at any
/// scale factor with the distributions that matter to the benchmark
/// queries: uniform keys, the 1992..1998 order-date window, shipdate =
/// orderdate + U[1,121], 1–7 lineitems per order, the standard enum
/// domains (segments, priorities, ship modes, flags).
///
/// Generation is *split-independent*: split i of n can be produced without
/// materializing the rest of the table, exactly like reading one CSV split.

/// Schema of one of the 8 TPC-H tables ("lineitem", "orders", ...).
TableSchema TpchSchema(const std::string& table);

/// All eight table names in generation order.
const std::vector<std::string>& TpchTableNames();

/// Base row count for a table at the given scale factor (lineitem is
/// approximate; its exact count is derived from per-order line counts).
int64_t TpchRowCount(const std::string& table, double scale_factor);

/// Catalog pre-loaded with the 8 schemas and the paper's Table-1
/// partitioning scheme scaled to `num_storage_nodes` nodes: nation/region
/// live on 1 node with 1 split, lineitem gets 7 splits per node, every
/// other table 1 split per node.
Catalog MakeTpchCatalog(double scale_factor, int num_storage_nodes);

/// Streaming generator for one split of one table. Thread-compatible
/// (use one instance per driver).
class TpchSplitGenerator {
 public:
  /// @param batch_rows  rows per produced page (the scan page size).
  /// @param columns     table-schema channels to emit, in page order;
  ///                    distinct. Empty emits the full schema. Every emitted
  ///                    value, and every page boundary, equals the full
  ///                    page's.
  TpchSplitGenerator(std::string table, double scale_factor, int split_index,
                     int split_count, int64_t batch_rows = 1024,
                     std::vector<int> columns = {});

  /// Next page of rows, or nullptr when the split is exhausted.
  PagePtr NextPage();

  /// Total rows this split will produce (exact).
  int64_t TotalRows() const { return total_rows_; }

 private:
  // One fill loop per table, chosen at construction. Each appends exactly
  // `rows` rows to `out[channel]` for every requested schema channel
  // (null for the others) and advances the cursor.
  using FillFn = void (TpchSplitGenerator::*)(Column* const* out,
                                              int64_t rows);
  void FillNation(Column* const* out, int64_t rows);
  void FillRegion(Column* const* out, int64_t rows);
  void FillSupplier(Column* const* out, int64_t rows);
  void FillPart(Column* const* out, int64_t rows);
  void FillPartsupp(Column* const* out, int64_t rows);
  void FillCustomer(Column* const* out, int64_t rows);
  void FillOrders(Column* const* out, int64_t rows);
  void FillLineitem(Column* const* out, int64_t rows);

  TableSchema schema_;
  int64_t batch_rows_;
  std::vector<int> columns_;  // emitted schema channels, in page order
  FillFn fill_ = nullptr;
  // Foreign-key domains at this scale factor.
  int64_t customers_ = 0;
  int64_t parts_ = 0;
  int64_t suppliers_ = 0;
  // Row-range tables: next row index. Lineitem: current order key.
  int64_t cursor_ = 0;
  int64_t total_rows_ = 0;
  int64_t remaining_rows_ = 0;
  // Lineitem: lines already emitted of order `cursor_`, its line count and
  // its order date.
  int64_t line_in_order_ = 0;
  int64_t order_lines_ = 0;
  int64_t order_date_ = 0;
};

/// Materializes an entire split (convenience for tests).
std::vector<PagePtr> GenerateSplit(const std::string& table,
                                   double scale_factor, int split_index,
                                   int split_count, int64_t batch_rows = 1024);

/// Total bytes of one table at the given SF (sum of page byte sizes across
/// splits) — used by the Table 1 reproduction.
int64_t TpchTableBytes(const std::string& table, double scale_factor,
                       int split_count);

}  // namespace accordion

#endif  // ACCORDION_TPCH_TPCH_H_
