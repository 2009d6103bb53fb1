#ifndef ACCORDION_STORAGE_PAGE_SOURCE_H_
#define ACCORDION_STORAGE_PAGE_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "tpch/tpch.h"
#include "vector/page.h"

namespace accordion {

/// Stream of pages backing one system split. Table-scan drivers pull from
/// exactly one PageSource at a time; a new source is opened per split.
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Next page, or nullptr when the split is exhausted.
  virtual PagePtr Next() = 0;
};

/// PageSource over the deterministic TPC-H generator (the default storage
/// backend: equivalent to reading a pre-generated CSV split, minus disk).
/// `columns` are the table-schema channels to emit (empty: all of them).
class GeneratorPageSource : public PageSource {
 public:
  GeneratorPageSource(std::string table, double scale_factor, int split_index,
                      int split_count, int64_t batch_rows = 1024,
                      std::vector<int> columns = {})
      : gen_(std::move(table), scale_factor, split_index, split_count,
             batch_rows, std::move(columns)) {}

  PagePtr Next() override { return gen_.NextPage(); }
  /// Total rows this split will produce (exact).
  int64_t TotalRows() const { return gen_.TotalRows(); }

 private:
  TpchSplitGenerator gen_;
};

/// Wraps a full-schema source with content-keyed NULL injection
/// (Page::InjectNulls) for three-valued-logic differential testing, then
/// keeps `columns` (empty: all) zero-copy. Injection hashes the whole row,
/// so it must see full rows for every reader to get the same NULLs.
/// Enabled by EngineConfig::null_injection_rate > 0; never used in
/// production runs.
class NullInjectingPageSource : public PageSource {
 public:
  NullInjectingPageSource(std::unique_ptr<PageSource> inner, double rate,
                          uint64_t seed, std::vector<int> columns)
      : inner_(std::move(inner)),
        rate_(rate),
        seed_(seed),
        columns_(std::move(columns)) {}

  PagePtr Next() override {
    PagePtr page = inner_->Next();
    if (page == nullptr) return nullptr;
    page = InjectNulls(page, rate_, seed_);
    if (columns_.empty()) return page;
    std::vector<ColumnPtr> kept;
    kept.reserve(columns_.size());
    for (int ch : columns_) kept.push_back(page->shared_column(ch));
    return Page::MakeShared(std::move(kept));
  }

 private:
  std::unique_ptr<PageSource> inner_;
  double rate_;
  uint64_t seed_;
  std::vector<int> columns_;
};

}  // namespace accordion

#endif  // ACCORDION_STORAGE_PAGE_SOURCE_H_
