#include "tpch/tpch.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "optimizer/stats.h"
#include "storage/page_source.h"

namespace accordion {
namespace {

constexpr int64_t kCustomersPerSf = 150000;
constexpr int64_t kOrdersPerSf = 1500000;
constexpr int64_t kSuppliersPerSf = 10000;
constexpr int64_t kPartsPerSf = 200000;
constexpr int64_t kPartsuppPerSf = 800000;

constexpr std::string_view kNationNames[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
constexpr int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                                   4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
constexpr std::string_view kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA",
                                              "EUROPE", "MIDDLE EAST"};
constexpr std::string_view kSegments[5] = {"AUTOMOBILE", "BUILDING",
                                           "FURNITURE", "HOUSEHOLD",
                                           "MACHINERY"};
constexpr std::string_view kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                             "4-NOT SPECIFIED", "5-LOW"};
constexpr std::string_view kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                            "TRUCK",   "MAIL", "FOB"};
constexpr std::string_view kShipInstructs[4] = {
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"};
constexpr std::string_view kContainers[8] = {
    "SM CASE", "SM BOX", "MED BAG",    "MED BOX",
    "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"};
constexpr std::string_view kTypes[6] = {
    "STANDARD ANODIZED", "SMALL PLATED",   "MEDIUM BRUSHED",
    "ECONOMY BURNISHED", "LARGE POLISHED", "PROMO ANODIZED"};
constexpr std::string_view kMaterials[5] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                            "COPPER"};

// Order-date window from the TPC-H spec, and the "current date" that
// splits shipped from open lines.
const int64_t kStartDate = ParseDate("1992-01-01");
const int64_t kEndDate = ParseDate("1998-08-02");
const int64_t kCurrentDate = ParseDate("1995-06-17");

uint64_t Splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr uint64_t TableSeed(std::string_view table) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : table) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kNationSeed = TableSeed("nation");
constexpr uint64_t kRegionSeed = TableSeed("region");
constexpr uint64_t kSupplierSeed = TableSeed("supplier");
constexpr uint64_t kPartSeed = TableSeed("part");
constexpr uint64_t kPartsuppSeed = TableSeed("partsupp");
constexpr uint64_t kCustomerSeed = TableSeed("customer");
constexpr uint64_t kOrdersSeed = TableSeed("orders");
constexpr uint64_t kLineitemSeed = TableSeed("lineitem");

/// Per-row deterministic RNG: generation order never affects values.
Random RowRng(uint64_t table_seed, int64_t row) {
  return Random(Splitmix(table_seed ^ static_cast<uint64_t>(row)));
}

/// First draw of an order row's RNG; lineitem re-derives it per order.
int64_t DrawOrderDate(Random* rng) {
  return kStartDate + rng->NextInt(0, kEndDate - kStartDate);
}

int64_t LinesPerOrder(int64_t orderkey) {
  return 1 + static_cast<int64_t>(Splitmix(static_cast<uint64_t>(orderkey) ^
                                           0xC0FFEE) %
                                  7);
}

double PartRetailPrice(int64_t partkey) {
  return 900.0 + static_cast<double>(partkey % 1000) + 0.01 * (partkey % 100);
}

// Strings are built once, in place in the column's storage. A value made
// of several draws takes them in a fixed order that is part of the data
// (TpchTest.PagesMatchRecordedDigests pins it): right to left, e.g. a
// phone number's last four digits before its country code.
//
// Every append takes the column a fill loop writes, or null when the page
// does not hold it. A value passed in is drawn either way, at its place in
// the row's draw order; a skipped string steps the row's RNG past the
// draws it would take with Random::Skip. So every later draw of the row,
// and every kept value, is the same as in the full page.

void AppendInt(Column* col, int64_t value) {
  if (col != nullptr) col->AppendInt(value);
}

void AppendDouble(Column* col, double value) {
  if (col != nullptr) col->AppendDouble(value);
}

void AppendStr(Column* col, std::string_view value) {
  if (col != nullptr) col->mutable_strings()->emplace_back(value);
}

/// `len` random lowercase letters.
void AppendRandomStr(Column* col, Random* rng, int len) {
  if (col == nullptr) {
    rng->Skip(static_cast<uint64_t>(len));
    return;
  }
  rng->FillString(col->mutable_strings()->emplace_back(len, 'a').data(), len);
}

/// `prefix` then `n` in decimal, as `prefix + std::to_string(n)`.
void AppendNumbered(Column* col, std::string_view prefix, int64_t n) {
  if (col == nullptr) return;
  char buf[48];
  std::memcpy(buf, prefix.data(), prefix.size());
  char* end = std::to_chars(buf + prefix.size(), buf + sizeof(buf), n).ptr;
  AppendStr(col, std::string_view(buf, static_cast<size_t>(end - buf)));
}

/// "NN-555-NNNN".
void AppendPhone(Column* col, Random* rng) {
  if (col == nullptr) {
    rng->Skip(2);
    return;
  }
  const int64_t line = rng->NextInt(1000, 9999);
  const int64_t country = 10 + rng->NextInt(0, 24);
  char buf[] = "00-555-0000";
  buf[0] = static_cast<char>('0' + country / 10);
  buf[1] = static_cast<char>('0' + country % 10);
  std::to_chars(buf + 7, buf + 11, line);
  AppendStr(col, std::string_view(buf, 11));
}

/// p_name, "<material> <8 letters>": the letters are drawn first.
void AppendPartName(Column* col, Random* rng) {
  if (col == nullptr) {
    rng->Skip(8 + 1);  // the letters, then the material
    return;
  }
  char letters[8];
  rng->FillString(letters, 8);
  std::string& name =
      col->mutable_strings()->emplace_back(kMaterials[rng->NextInt(0, 4)]);
  name += ' ';
  name.append(letters, 8);
}

/// p_type, "<type> <material>": the material is drawn first.
void AppendPartType(Column* col, Random* rng) {
  if (col == nullptr) {
    rng->Skip(2);
    return;
  }
  const std::string_view material = kMaterials[rng->NextInt(0, 4)];
  std::string& type =
      col->mutable_strings()->emplace_back(kTypes[rng->NextInt(0, 5)]);
  type += ' ';
  type += material;
}

}  // namespace

const std::vector<std::string>& TpchTableNames() {
  static const std::vector<std::string> kNames = {
      "nation", "region",   "supplier", "part",
      "partsupp", "customer", "orders",   "lineitem"};
  return kNames;
}

TableSchema TpchSchema(const std::string& table) {
  using DT = DataType;
  if (table == "nation") {
    return TableSchema("nation", {{"n_nationkey", DT::kInt64},
                                  {"n_name", DT::kString},
                                  {"n_regionkey", DT::kInt64},
                                  {"n_comment", DT::kString}});
  }
  if (table == "region") {
    return TableSchema("region", {{"r_regionkey", DT::kInt64},
                                  {"r_name", DT::kString},
                                  {"r_comment", DT::kString}});
  }
  if (table == "supplier") {
    return TableSchema("supplier", {{"s_suppkey", DT::kInt64},
                                    {"s_name", DT::kString},
                                    {"s_address", DT::kString},
                                    {"s_nationkey", DT::kInt64},
                                    {"s_phone", DT::kString},
                                    {"s_acctbal", DT::kDouble},
                                    {"s_comment", DT::kString}});
  }
  if (table == "part") {
    return TableSchema("part", {{"p_partkey", DT::kInt64},
                                {"p_name", DT::kString},
                                {"p_mfgr", DT::kString},
                                {"p_brand", DT::kString},
                                {"p_type", DT::kString},
                                {"p_size", DT::kInt64},
                                {"p_container", DT::kString},
                                {"p_retailprice", DT::kDouble},
                                {"p_comment", DT::kString}});
  }
  if (table == "partsupp") {
    return TableSchema("partsupp", {{"ps_partkey", DT::kInt64},
                                    {"ps_suppkey", DT::kInt64},
                                    {"ps_availqty", DT::kInt64},
                                    {"ps_supplycost", DT::kDouble},
                                    {"ps_comment", DT::kString}});
  }
  if (table == "customer") {
    return TableSchema("customer", {{"c_custkey", DT::kInt64},
                                    {"c_name", DT::kString},
                                    {"c_address", DT::kString},
                                    {"c_nationkey", DT::kInt64},
                                    {"c_phone", DT::kString},
                                    {"c_acctbal", DT::kDouble},
                                    {"c_mktsegment", DT::kString},
                                    {"c_comment", DT::kString}});
  }
  if (table == "orders") {
    return TableSchema("orders", {{"o_orderkey", DT::kInt64},
                                  {"o_custkey", DT::kInt64},
                                  {"o_orderstatus", DT::kString},
                                  {"o_totalprice", DT::kDouble},
                                  {"o_orderdate", DT::kDate},
                                  {"o_orderpriority", DT::kString},
                                  {"o_clerk", DT::kString},
                                  {"o_shippriority", DT::kInt64},
                                  {"o_comment", DT::kString}});
  }
  if (table == "lineitem") {
    return TableSchema("lineitem", {{"l_orderkey", DT::kInt64},
                                    {"l_partkey", DT::kInt64},
                                    {"l_suppkey", DT::kInt64},
                                    {"l_linenumber", DT::kInt64},
                                    {"l_quantity", DT::kDouble},
                                    {"l_extendedprice", DT::kDouble},
                                    {"l_discount", DT::kDouble},
                                    {"l_tax", DT::kDouble},
                                    {"l_returnflag", DT::kString},
                                    {"l_linestatus", DT::kString},
                                    {"l_shipdate", DT::kDate},
                                    {"l_commitdate", DT::kDate},
                                    {"l_receiptdate", DT::kDate},
                                    {"l_shipinstruct", DT::kString},
                                    {"l_shipmode", DT::kString},
                                    {"l_comment", DT::kString}});
  }
  ACC_CHECK(false) << "unknown TPC-H table: " << table;
  return TableSchema();
}

int64_t TpchRowCount(const std::string& table, double sf) {
  auto scaled = [sf](int64_t base) {
    return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * sf)));
  };
  if (table == "nation") return 25;
  if (table == "region") return 5;
  if (table == "supplier") return scaled(kSuppliersPerSf);
  if (table == "part") return scaled(kPartsPerSf);
  if (table == "partsupp") return scaled(kPartsuppPerSf);
  if (table == "customer") return scaled(kCustomersPerSf);
  if (table == "orders") return scaled(kOrdersPerSf);
  if (table == "lineitem") return scaled(kOrdersPerSf) * 4;  // approx
  ACC_CHECK(false) << "unknown TPC-H table: " << table;
  return 0;
}

Catalog MakeTpchCatalog(double scale_factor, int num_storage_nodes) {
  // Statistics sample per table: enough rows for stable NDV / min-max
  // estimates, small enough that catalog construction stays cheap in
  // tests that build many clusters.
  constexpr int64_t kStatsSampleRows = 8192;
  Catalog catalog;
  for (const auto& table : TpchTableNames()) {
    TableLayout layout;
    if (table == "nation" || table == "region") {
      layout = {1, 1};  // 1 node, 1 split/node (paper Table 1)
    } else if (table == "lineitem") {
      layout = {num_storage_nodes, 7};  // 7 splits/node
    } else {
      layout = {num_storage_nodes, 1};
    }
    catalog.AddTable(TpchSchema(table), layout);
    // Load-time statistics pass: scan a prefix of the (deterministic)
    // generated data and extrapolate to the exact table row count.
    GeneratorPageSource source(table, scale_factor, 0, 1);
    catalog.SetStats(table, CollectStats(TpchSchema(table), &source,
                                         kStatsSampleRows,
                                         source.TotalRows()));
  }
  return catalog;
}

TpchSplitGenerator::TpchSplitGenerator(std::string table, double scale_factor,
                                       int split_index, int split_count,
                                       int64_t batch_rows,
                                       std::vector<int> columns)
    : schema_(TpchSchema(table)),
      batch_rows_(batch_rows),
      columns_(std::move(columns)),
      customers_(TpchRowCount("customer", scale_factor)),
      parts_(TpchRowCount("part", scale_factor)),
      suppliers_(TpchRowCount("supplier", scale_factor)) {
  ACC_CHECK(split_index >= 0 && split_index < split_count)
      << "bad split " << split_index << "/" << split_count;
  const int num_channels = static_cast<int>(schema_.columns().size());
  if (columns_.empty()) {
    for (int ch = 0; ch < num_channels; ++ch) columns_.push_back(ch);
  }
  std::vector<bool> seen(static_cast<size_t>(num_channels), false);
  for (int ch : columns_) {
    ACC_CHECK(ch >= 0 && ch < num_channels && !seen[static_cast<size_t>(ch)])
        << table << ": bad or repeated column channel " << ch;
    seen[static_cast<size_t>(ch)] = true;
  }
  static constexpr std::pair<std::string_view, FillFn> kFills[] = {
      {"nation", &TpchSplitGenerator::FillNation},
      {"region", &TpchSplitGenerator::FillRegion},
      {"supplier", &TpchSplitGenerator::FillSupplier},
      {"part", &TpchSplitGenerator::FillPart},
      {"partsupp", &TpchSplitGenerator::FillPartsupp},
      {"customer", &TpchSplitGenerator::FillCustomer},
      {"orders", &TpchSplitGenerator::FillOrders},
      {"lineitem", &TpchSplitGenerator::FillLineitem}};
  for (const auto& [name, fill] : kFills) {
    if (name == table) fill_ = fill;
  }
  if (fill_ == &TpchSplitGenerator::FillLineitem) {
    // Partition by order range; derive exact line counts. The cursor
    // starts on a finished empty order just before the range, so the
    // first row steps to `begin`.
    const int64_t orders = TpchRowCount("orders", scale_factor);
    const int64_t begin = 1 + orders * split_index / split_count;
    const int64_t end = 1 + orders * (split_index + 1) / split_count;
    for (int64_t o = begin; o < end; ++o) total_rows_ += LinesPerOrder(o);
    cursor_ = begin - 1;
  } else {
    const int64_t rows = TpchRowCount(table, scale_factor);
    cursor_ = rows * split_index / split_count;
    total_rows_ = rows * (split_index + 1) / split_count - cursor_;
  }
  remaining_rows_ = total_rows_;
}

PagePtr TpchSplitGenerator::NextPage() {
  const int64_t rows = std::min(batch_rows_, remaining_rows_);
  if (rows <= 0) return nullptr;
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (int channel : columns_) {
    cols.emplace_back(schema_.TypeOf(channel)).Reserve(rows);
  }
  std::vector<Column*> out(schema_.columns().size(), nullptr);
  for (size_t i = 0; i < columns_.size(); ++i) out[columns_[i]] = &cols[i];
  (this->*fill_)(out.data(), rows);
  remaining_rows_ -= rows;
  return Page::Make(std::move(cols));
}

void TpchSplitGenerator::FillNation(Column* const* out, int64_t rows) {
  const int64_t first = cursor_;
  cursor_ += rows;
  for (int64_t i = first; i < first + rows; ++i) {
    Random rng = RowRng(kNationSeed, i);
    AppendInt(out[0], i);
    AppendStr(out[1], kNationNames[i]);
    AppendInt(out[2], kNationRegion[i]);
    AppendRandomStr(out[3], &rng, 20);
  }
}

void TpchSplitGenerator::FillRegion(Column* const* out, int64_t rows) {
  const int64_t first = cursor_;
  cursor_ += rows;
  for (int64_t i = first; i < first + rows; ++i) {
    Random rng = RowRng(kRegionSeed, i);
    AppendInt(out[0], i);
    AppendStr(out[1], kRegionNames[i]);
    AppendRandomStr(out[2], &rng, 20);
  }
}

void TpchSplitGenerator::FillSupplier(Column* const* out, int64_t rows) {
  const int64_t first = cursor_ + 1;  // 1-based keys
  cursor_ += rows;
  for (int64_t key = first; key < first + rows; ++key) {
    Random rng = RowRng(kSupplierSeed, key);
    AppendInt(out[0], key);
    AppendNumbered(out[1], "Supplier#", key);
    AppendRandomStr(out[2], &rng, 15);
    AppendInt(out[3], rng.NextInt(0, 24));
    AppendPhone(out[4], &rng);
    AppendDouble(out[5], rng.NextDouble() * 10000 - 1000);
    AppendRandomStr(out[6], &rng, 25);
  }
}

void TpchSplitGenerator::FillPart(Column* const* out, int64_t rows) {
  const int64_t first = cursor_ + 1;
  cursor_ += rows;
  for (int64_t key = first; key < first + rows; ++key) {
    Random rng = RowRng(kPartSeed, key);
    AppendInt(out[0], key);
    AppendPartName(out[1], &rng);
    AppendNumbered(out[2], "Manufacturer#", rng.NextInt(1, 5));
    AppendNumbered(out[3], "Brand#", rng.NextInt(11, 55));
    AppendPartType(out[4], &rng);
    AppendInt(out[5], rng.NextInt(1, 50));
    AppendStr(out[6], kContainers[rng.NextInt(0, 7)]);
    AppendDouble(out[7], PartRetailPrice(key));
    AppendRandomStr(out[8], &rng, 15);
  }
}

void TpchSplitGenerator::FillPartsupp(Column* const* out, int64_t rows) {
  const int64_t suppliers = suppliers_;
  const int64_t supplier_stride = suppliers / 4 + 1;
  const int64_t first = cursor_;
  cursor_ += rows;
  for (int64_t i = first; i < first + rows; ++i) {
    Random rng = RowRng(kPartsuppSeed, i);
    // 4 suppliers per part.
    const int64_t partkey = 1 + i / 4;
    AppendInt(out[0], partkey);
    AppendInt(out[1], 1 + (partkey + (i % 4) * supplier_stride) % suppliers);
    AppendInt(out[2], rng.NextInt(1, 9999));
    AppendDouble(out[3], rng.NextDouble() * 1000 + 1);
    AppendRandomStr(out[4], &rng, 20);
  }
}

void TpchSplitGenerator::FillCustomer(Column* const* out, int64_t rows) {
  const int64_t first = cursor_ + 1;
  cursor_ += rows;
  for (int64_t key = first; key < first + rows; ++key) {
    Random rng = RowRng(kCustomerSeed, key);
    AppendInt(out[0], key);
    AppendNumbered(out[1], "Customer#", key);
    AppendRandomStr(out[2], &rng, 15);
    AppendInt(out[3], rng.NextInt(0, 24));
    AppendPhone(out[4], &rng);
    AppendDouble(out[5], rng.NextDouble() * 10000 - 1000);
    AppendStr(out[6], kSegments[rng.NextInt(0, 4)]);
    AppendRandomStr(out[7], &rng, 25);
  }
}

void TpchSplitGenerator::FillOrders(Column* const* out, int64_t rows) {
  const int64_t customers = customers_;
  const int64_t first = cursor_ + 1;
  cursor_ += rows;
  for (int64_t key = first; key < first + rows; ++key) {
    Random rng = RowRng(kOrdersSeed, key);
    const int64_t orderdate = DrawOrderDate(&rng);
    AppendInt(out[0], key);
    AppendInt(out[1], rng.NextInt(1, customers));
    AppendStr(out[2], orderdate + 90 < kCurrentDate ? "F" : "O");
    AppendDouble(out[3], 1000 + rng.NextDouble() * 450000);
    AppendInt(out[4], orderdate);
    AppendStr(out[5], kPriorities[rng.NextInt(0, 4)]);
    AppendNumbered(out[6], "Clerk#", rng.NextInt(1, 1000));
    AppendInt(out[7], 0);
    AppendRandomStr(out[8], &rng, 30);
  }
}

void TpchSplitGenerator::FillLineitem(Column* const* out, int64_t rows) {
  const int64_t parts = parts_;
  const int64_t suppliers = suppliers_;
  int64_t orderkey = cursor_;
  int64_t line = line_in_order_;
  int64_t order_lines = order_lines_;
  int64_t orderdate = order_date_;
  for (int64_t r = 0; r < rows; ++r) {
    if (line == order_lines) {
      // Next order: its line count and (from the order row's own RNG) its
      // date, once for all of its lines.
      ++orderkey;
      line = 0;
      order_lines = LinesPerOrder(orderkey);
      Random order_rng = RowRng(kOrdersSeed, orderkey);
      orderdate = DrawOrderDate(&order_rng);
    }
    ++line;
    Random rng = RowRng(kLineitemSeed, orderkey * 8 + line);
    const int64_t partkey = rng.NextInt(1, parts);
    const double quantity = static_cast<double>(rng.NextInt(1, 50));
    const int64_t shipdate = orderdate + rng.NextInt(1, 121);
    const int64_t commitdate = orderdate + rng.NextInt(30, 90);
    const int64_t receiptdate = shipdate + rng.NextInt(1, 30);
    AppendInt(out[0], orderkey);
    AppendInt(out[1], partkey);
    AppendInt(out[2], rng.NextInt(1, suppliers));
    AppendInt(out[3], line);
    AppendDouble(out[4], quantity);
    AppendDouble(out[5], quantity * PartRetailPrice(partkey));
    AppendDouble(out[6], 0.01 * rng.NextInt(0, 10));
    AppendDouble(out[7], 0.01 * rng.NextInt(0, 8));
    AppendStr(out[8], receiptdate <= kCurrentDate
                          ? (rng.NextInt(0, 1) ? "R" : "A")
                          : "N");
    AppendStr(out[9], shipdate > kCurrentDate ? "O" : "F");
    AppendInt(out[10], shipdate);
    AppendInt(out[11], commitdate);
    AppendInt(out[12], receiptdate);
    AppendStr(out[13], kShipInstructs[rng.NextInt(0, 3)]);
    AppendStr(out[14], kShipModes[rng.NextInt(0, 6)]);
    AppendRandomStr(out[15], &rng, 20);
  }
  cursor_ = orderkey;
  line_in_order_ = line;
  order_lines_ = order_lines;
  order_date_ = orderdate;
}

std::vector<PagePtr> GenerateSplit(const std::string& table,
                                   double scale_factor, int split_index,
                                   int split_count, int64_t batch_rows) {
  TpchSplitGenerator gen(table, scale_factor, split_index, split_count,
                         batch_rows);
  std::vector<PagePtr> pages;
  while (PagePtr page = gen.NextPage()) pages.push_back(page);
  return pages;
}

int64_t TpchTableBytes(const std::string& table, double scale_factor,
                       int split_count) {
  int64_t bytes = 0;
  for (int s = 0; s < split_count; ++s) {
    TpchSplitGenerator gen(table, scale_factor, s, split_count, 4096);
    while (PagePtr page = gen.NextPage()) bytes += page->ByteSize();
  }
  return bytes;
}

}  // namespace accordion
