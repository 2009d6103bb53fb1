#include "exec/radix_partitioner.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/random.h"

namespace accordion {
namespace {

PagePtr MixedPage(int64_t rows, uint32_t seed) {
  Random rng(seed);
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  Column strings(DataType::kString);
  for (int64_t i = 0; i < rows; ++i) {
    ints.AppendInt(rng.NextInt(0, 1000));
    doubles.AppendDouble(rng.NextDouble());
    strings.AppendStr("s" + std::to_string(rng.NextInt(0, 50)));
  }
  return Page::Make({std::move(ints), std::move(doubles), std::move(strings)});
}

TEST(RadixPartitionerTest, SelectionsPartitionEveryRowExactlyOnce) {
  Random rng(5);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    hashes.push_back(static_cast<uint64_t>(rng.NextInt(0, 1LL << 62)) * 7);
  }
  RadixPartitioner partitioner(4);
  std::vector<std::vector<int32_t>> selections;
  partitioner.BuildSelections(hashes.data(), 10000, &selections);
  ASSERT_EQ(selections.size(), 16u);
  std::vector<bool> seen(10000, false);
  for (size_t p = 0; p < selections.size(); ++p) {
    for (int32_t row : selections[p]) {
      EXPECT_FALSE(seen[row]);
      seen[row] = true;
      // Assignment is the hash's top bits.
      EXPECT_EQ(hashes[row] >> 60, p);
      EXPECT_EQ(partitioner.PartitionOf(hashes[row]), static_cast<int>(p));
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(RadixPartitionerTest, ModuloSelectionsMatchPerRowProtocol) {
  // The shuffle write path must keep the exact `hash % count` assignment
  // consumers were scheduled against — including non-power-of-two counts.
  PagePtr page = MixedPage(2000, 11);
  for (int count : {2, 3, 7}) {
    std::vector<uint64_t> hashes;
    page->HashRows({0, 2}, &hashes);
    std::vector<std::vector<int32_t>> selections;
    RadixPartitioner::BuildModuloSelections(hashes.data(), page->num_rows(),
                                            count, &selections);
    int64_t total = 0;
    for (int p = 0; p < count; ++p) {
      for (int32_t row : selections[p]) {
        ASSERT_EQ(page->HashRow(row, {0, 2}) % count,
                  static_cast<uint64_t>(p));
      }
      total += static_cast<int64_t>(selections[p].size());
    }
    EXPECT_EQ(total, page->num_rows());
  }
}

TEST(RadixPartitionerTest, GatherSelectionMatchesSelect) {
  PagePtr page = MixedPage(1000, 23);
  // Mixed run shapes: a dense prefix run, strided singles, a tail run.
  std::vector<int32_t> selection;
  for (int32_t i = 0; i < 100; ++i) selection.push_back(i);
  for (int32_t i = 100; i < 600; i += 7) selection.push_back(i);
  for (int32_t i = 900; i < 1000; ++i) selection.push_back(i);
  PagePtr gathered = GatherSelection(*page, selection);
  PagePtr selected = page->Select(selection);
  ASSERT_EQ(gathered->num_rows(), selected->num_rows());
  ASSERT_EQ(gathered->num_columns(), selected->num_columns());
  for (int c = 0; c < gathered->num_columns(); ++c) {
    for (int64_t r = 0; r < gathered->num_rows(); ++r) {
      EXPECT_EQ(gathered->column(c).ValueAt(r) ==
                    selected->column(c).ValueAt(r),
                true)
          << "column " << c << " row " << r;
    }
  }
}

TEST(RadixPartitionerTest, GatherSelectionAllSingletonRuns) {
  // Worst case for run coalescing: every selected row is isolated.
  PagePtr page = MixedPage(500, 31);
  std::vector<int32_t> selection;
  for (int32_t i = 0; i < 500; i += 2) selection.push_back(i);
  PagePtr gathered = GatherSelection(*page, selection);
  ASSERT_EQ(gathered->num_rows(), 250);
  for (int64_t r = 0; r < 250; ++r) {
    EXPECT_EQ(gathered->column(0).IntAt(r), page->column(0).IntAt(r * 2));
    EXPECT_EQ(gathered->column(2).StrAt(r), page->column(2).StrAt(r * 2));
  }
}

TEST(ColumnAppendGatherTest, AppendsSelectedRowsAcrossTypes) {
  Column src_i(DataType::kInt64);
  Column src_d(DataType::kDouble);
  Column src_s(DataType::kString);
  for (int i = 0; i < 10; ++i) {
    src_i.AppendInt(i * 10);
    src_d.AppendDouble(i * 0.5);
    src_s.AppendStr(std::string(1, static_cast<char>('a' + i)));
  }
  std::vector<int32_t> rows{9, 0, 4, 4};
  Column dst_i(DataType::kInt64);
  dst_i.AppendInt(-1);  // gather appends after existing content
  dst_i.AppendGather(src_i, rows.data(), 4);
  EXPECT_EQ(dst_i.ints(), (std::vector<int64_t>{-1, 90, 0, 40, 40}));
  Column dst_d(DataType::kDouble);
  dst_d.AppendGather(src_d, rows.data(), 4);
  EXPECT_EQ(dst_d.doubles(), (std::vector<double>{4.5, 0.0, 2.0, 2.0}));
  Column dst_s(DataType::kString);
  dst_s.AppendGather(src_s, rows.data(), 4);
  EXPECT_EQ(dst_s.strings(), (std::vector<std::string>{"j", "a", "e", "e"}));
}

}  // namespace
}  // namespace accordion
