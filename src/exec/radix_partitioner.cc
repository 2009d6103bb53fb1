#include "exec/radix_partitioner.h"

#include "common/logging.h"

namespace accordion {

RadixPartitioner::RadixPartitioner(int bits) : bits_(bits), shift_(64 - bits) {
  ACC_CHECK(bits >= 1 && bits < 32) << "radix bits out of range: " << bits;
}

void RadixPartitioner::BuildSelections(
    const uint64_t* hashes, int64_t n,
    std::vector<std::vector<int32_t>>* selections) const {
  selections->resize(static_cast<size_t>(num_partitions()));
  for (auto& sel : *selections) sel.clear();
  auto* sels = selections->data();
  for (int64_t i = 0; i < n; ++i) {
    sels[hashes[i] >> shift_].push_back(static_cast<int32_t>(i));
  }
}

void RadixPartitioner::BuildModuloSelections(
    const uint64_t* hashes, int64_t n, int num_partitions,
    std::vector<std::vector<int32_t>>* selections) {
  selections->resize(static_cast<size_t>(num_partitions));
  for (auto& sel : *selections) sel.clear();
  auto* sels = selections->data();
  for (int64_t i = 0; i < n; ++i) {
    sels[hashes[i] % num_partitions].push_back(static_cast<int32_t>(i));
  }
}

PagePtr GatherSelection(const Page& page,
                        const std::vector<int32_t>& selection) {
  const int64_t count = static_cast<int64_t>(selection.size());
  // Count runs of consecutive rows first (no materialization): if the
  // selection is mostly singletons — the usual shape once hashes spread
  // rows over many partitions — the indexed gather's tight loop wins and
  // the run decomposition is skipped entirely.
  int64_t num_runs = 0;
  for (int64_t i = 0; i < count && num_runs * 4 < count;) {
    int64_t j = i + 1;
    while (j < count && selection[j] == selection[j - 1] + 1) ++j;
    ++num_runs;
    i = j;
  }
  const bool coalesce = num_runs * 4 < count;
  std::vector<std::pair<int32_t, int32_t>> runs;  // (start, length)
  if (coalesce) {
    runs.reserve(static_cast<size_t>(num_runs) + 1);
    for (int64_t i = 0; i < count;) {
      int64_t j = i + 1;
      while (j < count && selection[j] == selection[j - 1] + 1) ++j;
      runs.emplace_back(selection[i], static_cast<int32_t>(j - i));
      i = j;
    }
  }
  std::vector<Column> cols;
  cols.reserve(page.num_columns());
  for (int c = 0; c < page.num_columns(); ++c) {
    const Column& src = page.column(c);
    Column out(src.type());
    out.Reserve(count);
    if (coalesce) {
      // Long runs: each is one bulk AppendRange copy.
      for (const auto& [start, len] : runs) out.AppendRange(src, start, len);
    } else {
      out.AppendGather(src, selection.data(), count);
    }
    cols.push_back(std::move(out));
  }
  return Page::Make(std::move(cols));
}

}  // namespace accordion
