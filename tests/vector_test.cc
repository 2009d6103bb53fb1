#include <gtest/gtest.h>

#include "common/random.h"
#include "vector/data_type.h"
#include "vector/page.h"
#include "vector/value.h"

namespace accordion {
namespace {

Column MakeIntColumn(std::vector<int64_t> values) {
  Column col(DataType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

TEST(DateTest, RoundTrip) {
  for (const char* text : {"1970-01-01", "1992-02-29", "1994-03-05",
                           "1998-12-01", "2025-06-22"}) {
    int64_t days = ParseDate(text);
    EXPECT_EQ(FormatDate(days), text) << text;
  }
}

TEST(DateTest, EpochIsZero) { EXPECT_EQ(ParseDate("1970-01-01"), 0); }

TEST(DateTest, KnownOffsets) {
  EXPECT_EQ(ParseDate("1970-01-02"), 1);
  EXPECT_EQ(ParseDate("1971-01-01"), 365);
  EXPECT_EQ(ParseDate("1972-03-01") - ParseDate("1972-02-28"), 2);  // leap
}

TEST(DateTest, YearExtraction) {
  EXPECT_EQ(DateYear(ParseDate("1995-07-15")), 1995);
  EXPECT_EQ(DateYear(ParseDate("1996-01-01")), 1996);
}

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(ParseDate("1994-03-05"), ParseDate("1994-03-06"));
  EXPECT_LT(ParseDate("1993-12-31"), ParseDate("1994-01-01"));
}

TEST(DateTest, RejectsMalformed) {
  for (const char* text :
       {"banana", "", "1995-02-30", "1995-13-45", "1995-00-10", "1995-01-00",
        "1995-04-31", "1900-02-29", "1995-01-01junk", " 1995-01-01",
        "1995-1-1", "95-01-01", "1995/01/01", "1995-01-+1", "-995-01-01"}) {
    EXPECT_EQ(ParseDate(text), kInvalidDate) << text;
  }
  // Leap days exist in leap years only (every 4th, not every 100th, but
  // every 400th).
  EXPECT_EQ(FormatDate(ParseDate("1996-02-29")), "1996-02-29");
  EXPECT_EQ(FormatDate(ParseDate("2000-02-29")), "2000-02-29");
  EXPECT_EQ(ParseDate("1995-12-31") + 1, ParseDate("1996-01-01"));
}

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Str("abc").ToString(), "abc");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_FALSE(Value::Int(1) == Value::Bool(true));
  EXPECT_EQ(Value::Str("x"), Value::Str("x"));
}

TEST(ColumnTest, AppendAndAccess) {
  Column col(DataType::kString);
  col.AppendStr("alpha");
  col.AppendStr("beta");
  EXPECT_EQ(col.size(), 2);
  EXPECT_EQ(col.StrAt(1), "beta");
  EXPECT_EQ(col.ValueAt(0), Value::Str("alpha"));
}

TEST(ColumnTest, GatherReordersAndDuplicates) {
  Column col = MakeIntColumn({10, 20, 30});
  Column out = col.Gather({2, 0, 2});
  ASSERT_EQ(out.size(), 3);
  EXPECT_EQ(out.IntAt(0), 30);
  EXPECT_EQ(out.IntAt(1), 10);
  EXPECT_EQ(out.IntAt(2), 30);
}

TEST(ColumnTest, GatherWithInt64Indices) {
  Column col = MakeIntColumn({10, 20, 30});
  std::vector<int64_t> idx = {1, 1, 2};
  Column out = col.Gather(idx.data(), static_cast<int64_t>(idx.size()));
  ASSERT_EQ(out.size(), 3);
  EXPECT_EQ(out.IntAt(0), 20);
  EXPECT_EQ(out.IntAt(1), 20);
  EXPECT_EQ(out.IntAt(2), 30);
}

TEST(ColumnTest, AppendRangeBulkCopies) {
  Column src = MakeIntColumn({1, 2, 3, 4, 5});
  Column dst = MakeIntColumn({0});
  dst.AppendRange(src, 1, 3);
  ASSERT_EQ(dst.size(), 4);
  EXPECT_EQ(dst.IntAt(1), 2);
  EXPECT_EQ(dst.IntAt(3), 4);

  Column sstr(DataType::kString);
  sstr.AppendStr("a");
  sstr.AppendStr("b");
  sstr.AppendStr("c");
  Column dstr(DataType::kString);
  dstr.AppendRange(sstr, 0, 2);
  ASSERT_EQ(dstr.size(), 2);
  EXPECT_EQ(dstr.StrAt(1), "b");
}

TEST(ColumnTest, HashIntoMatchesHashAt) {
  Column ints = MakeIntColumn({1, -5, 99});
  Column strs(DataType::kString);
  strs.AppendStr("x");
  strs.AppendStr("");
  strs.AppendStr("long-ish string value");
  Column dbls(DataType::kDouble);
  dbls.AppendDouble(0.5);
  dbls.AppendDouble(-1.25);
  dbls.AppendDouble(3.0);
  for (const Column* col : {&ints, &strs, &dbls}) {
    std::vector<uint64_t> hashes(col->size(), Page::kHashSeed);
    col->HashInto(&hashes);
    for (int64_t i = 0; i < col->size(); ++i) {
      EXPECT_EQ(hashes[i], col->HashAt(i, Page::kHashSeed)) << i;
    }
  }
}

TEST(ColumnTest, ByteSizeGrows) {
  Column col(DataType::kInt64);
  EXPECT_EQ(col.ByteSize(), 0);
  col.AppendInt(1);
  EXPECT_EQ(col.ByteSize(), 8);
}

TEST(ColumnTest, HashIsStableAndSpreads) {
  Column col = MakeIntColumn({1, 2, 3, 1});
  EXPECT_EQ(col.HashAt(0, 7), col.HashAt(3, 7));
  EXPECT_NE(col.HashAt(0, 7), col.HashAt(1, 7));
  EXPECT_NE(col.HashAt(0, 7), col.HashAt(0, 8));  // seed matters
}

TEST(PageTest, MakeAndShape) {
  std::vector<Column> cols;
  cols.push_back(MakeIntColumn({1, 2, 3}));
  Column names(DataType::kString);
  names.AppendStr("a");
  names.AppendStr("b");
  names.AppendStr("c");
  cols.push_back(std::move(names));
  PagePtr page = Page::Make(std::move(cols));
  EXPECT_FALSE(page->IsEnd());
  EXPECT_EQ(page->num_rows(), 3);
  EXPECT_EQ(page->num_columns(), 2);
  EXPECT_GT(page->ByteSize(), 0);
}

TEST(PageTest, EndPageHasNoData) {
  PagePtr end = Page::End();
  EXPECT_TRUE(end->IsEnd());
  EXPECT_EQ(end->num_rows(), 0);
}

TEST(PageTest, SelectFilters) {
  PagePtr page = Page::Make({MakeIntColumn({5, 6, 7, 8})});
  PagePtr out = page->Select({1, 3});
  EXPECT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->column(0).IntAt(0), 6);
  EXPECT_EQ(out->column(0).IntAt(1), 8);
}

TEST(PageTest, HashRowCombinesChannels) {
  PagePtr page =
      Page::Make({MakeIntColumn({1, 1}), MakeIntColumn({2, 3})});
  EXPECT_EQ(page->HashRow(0, {0}), page->HashRow(1, {0}));
  EXPECT_NE(page->HashRow(0, {0, 1}), page->HashRow(1, {0, 1}));
}

TEST(PageTest, HashRowsMatchesHashRow) {
  Column tags(DataType::kString);
  tags.AppendStr("p");
  tags.AppendStr("q");
  tags.AppendStr("p");
  PagePtr page = Page::Make(
      {MakeIntColumn({1, 2, 1}), std::move(tags)});
  for (const std::vector<int>& channels :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1}}) {
    std::vector<uint64_t> hashes;
    page->HashRows(channels, &hashes);
    ASSERT_EQ(hashes.size(), 3u);
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(hashes[r], page->HashRow(r, channels));
    }
  }
}

TEST(PageTest, MakeSharedReusesColumns) {
  PagePtr base = Page::Make({MakeIntColumn({1, 2, 3})});
  PagePtr view = Page::MakeShared({base->shared_column(0)});
  EXPECT_EQ(view->num_rows(), 3);
  // Same physical column object — zero-copy.
  EXPECT_EQ(&view->column(0), &base->column(0));
}

TEST(PageTest, SerializeRoundTrip) {
  std::vector<Column> cols;
  cols.push_back(MakeIntColumn({1, -5, 1LL << 40}));
  Column d(DataType::kDouble);
  d.AppendDouble(0.5);
  d.AppendDouble(-2.25);
  d.AppendDouble(1e12);
  cols.push_back(std::move(d));
  Column s(DataType::kString);
  s.AppendStr("");
  s.AppendStr("hello");
  s.AppendStr(std::string(1000, 'x'));
  cols.push_back(std::move(s));
  PagePtr page = Page::Make(std::move(cols));

  auto result = Page::Deserialize(page->Serialize());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PagePtr back = *result;
  ASSERT_EQ(back->num_rows(), 3);
  ASSERT_EQ(back->num_columns(), 3);
  EXPECT_EQ(back->column(0).IntAt(2), 1LL << 40);
  EXPECT_DOUBLE_EQ(back->column(1).DoubleAt(1), -2.25);
  EXPECT_EQ(back->column(2).StrAt(2), std::string(1000, 'x'));
}

TEST(PageTest, SerializeEndPage) {
  auto result = Page::Deserialize(Page::End()->Serialize());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->IsEnd());
}

TEST(PageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Page::Deserialize("").ok());
  EXPECT_FALSE(Page::Deserialize("\x00garbage").ok());
  std::string truncated = Page::Make({MakeIntColumn({1, 2, 3})})->Serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(Page::Deserialize(truncated).ok());
}

TEST(PageTest, ConcatStacksRows) {
  PagePtr a = Page::Make({MakeIntColumn({1, 2})});
  PagePtr b = Page::Make({MakeIntColumn({3})});
  PagePtr cat = Page::Concat({a, b});
  ASSERT_EQ(cat->num_rows(), 3);
  EXPECT_EQ(cat->column(0).IntAt(2), 3);
}

// Property sweep: serialization round-trips random pages of all types.
class PageSerdePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PageSerdePropertyTest, RandomRoundTrip) {
  Random rng(GetParam());
  int64_t rows = rng.NextInt(0, 200);
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  Column strs(DataType::kString);
  Column dates(DataType::kDate);
  Column bools(DataType::kBool);
  for (int64_t i = 0; i < rows; ++i) {
    ints.AppendInt(static_cast<int64_t>(rng.NextUint64()));
    doubles.AppendDouble(rng.NextDouble() * 1e6 - 5e5);
    strs.AppendStr(rng.NextString(static_cast<int>(rng.NextInt(0, 30))));
    dates.AppendInt(rng.NextInt(0, 20000));
    bools.AppendInt(rng.NextInt(0, 1));
  }
  PagePtr page = Page::Make({std::move(ints), std::move(doubles),
                             std::move(strs), std::move(dates),
                             std::move(bools)});
  auto result = Page::Deserialize(page->Serialize());
  ASSERT_TRUE(result.ok());
  PagePtr back = *result;
  ASSERT_EQ(back->num_rows(), page->num_rows());
  for (int c = 0; c < page->num_columns(); ++c) {
    EXPECT_EQ(back->column(c).type(), page->column(c).type());
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(back->column(c).ValueAt(r), page->column(c).ValueAt(r))
          << "col " << c << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageSerdePropertyTest,
                         ::testing::Range(0, 12));

// --- validity bitmap properties ----------------------------------------------
// Every copy/move primitive (AppendFrom, AppendRange, AppendGather,
// Gather, GatherNullable, Select, Concat, Serialize) must carry the
// byte-per-row validity buffer along with the payload, preserve the
// empty-buffer == all-valid convention, and keep NULL payloads zeroed.

// Random nullable column of `type`: ~1/3 of rows NULL. `expect_null[i]`
// records the truth for later comparison.
Column RandomNullable(DataType type, int64_t rows, Random* rng,
                      std::vector<bool>* expect_null) {
  Column col(type);
  expect_null->clear();
  for (int64_t i = 0; i < rows; ++i) {
    if (rng->NextInt(0, 2) == 0) {
      col.AppendNull();
      expect_null->push_back(true);
      continue;
    }
    expect_null->push_back(false);
    switch (type) {
      case DataType::kDouble:
        col.AppendDouble(rng->NextDouble() * 100 - 50);
        break;
      case DataType::kString:
        col.AppendStr(rng->NextString(static_cast<int>(rng->NextInt(0, 12))));
        break;
      default:
        col.AppendInt(rng->NextInt(-1000, 1000));
        break;
    }
  }
  return col;
}

void ExpectSameRows(const Column& got, const Column& want, int64_t got_row,
                    int64_t want_row) {
  ASSERT_EQ(got.IsNull(got_row), want.IsNull(want_row))
      << "rows " << got_row << "/" << want_row;
  if (!got.IsNull(got_row)) {
    EXPECT_EQ(got.ValueAt(got_row) == want.ValueAt(want_row), true)
        << "rows " << got_row << "/" << want_row;
  }
}

class ValidityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ValidityPropertyTest, CopyPrimitivesCarryValidity) {
  Random rng(100 + GetParam());
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    std::vector<bool> is_null;
    Column src = RandomNullable(type, 300, &rng, &is_null);

    // AppendFrom: row-at-a-time onto a destination that starts all-valid,
    // so the validity buffer materializes mid-append and must backfill.
    Column dst(type);
    for (int64_t i = 0; i < 300; ++i) dst.AppendFrom(src, i);
    ASSERT_EQ(dst.size(), 300);
    for (int64_t i = 0; i < 300; ++i) ExpectSameRows(dst, src, i, i);

    // AppendRange: bulk spans, including ones straddling NULL runs and a
    // destination with pre-existing valid rows.
    Column ranged(type);
    ranged.AppendFrom(src, 0);
    ranged.AppendRange(src, 100, 150);
    ranged.AppendRange(src, 0, 0);  // empty span is a no-op
    ASSERT_EQ(ranged.size(), 151);
    ExpectSameRows(ranged, src, 0, 0);
    for (int64_t i = 0; i < 150; ++i) {
      ExpectSameRows(ranged, src, 1 + i, 100 + i);
    }

    // AppendGather over a hostile selection vector: duplicates, reversals,
    // page-boundary-sized strides.
    std::vector<int32_t> selection;
    for (int32_t i = 299; i >= 0; i -= 3) selection.push_back(i);
    for (int32_t i = 0; i < 50; ++i) selection.push_back(7);
    Column gathered(type);
    gathered.AppendGather(src, selection.data(),
                          static_cast<int64_t>(selection.size()));
    ASSERT_EQ(gathered.size(), static_cast<int64_t>(selection.size()));
    for (size_t i = 0; i < selection.size(); ++i) {
      ExpectSameRows(gathered, src, static_cast<int64_t>(i), selection[i]);
    }

    // Gather (both index widths) agrees with AppendGather.
    Column g32 = src.Gather(selection);
    std::vector<int64_t> sel64(selection.begin(), selection.end());
    Column g64 = src.Gather(sel64.data(), static_cast<int64_t>(sel64.size()));
    for (size_t i = 0; i < selection.size(); ++i) {
      ExpectSameRows(g32, gathered, static_cast<int64_t>(i),
                     static_cast<int64_t>(i));
      ExpectSameRows(g64, gathered, static_cast<int64_t>(i),
                     static_cast<int64_t>(i));
    }

    // GatherNullable: -1 indices mint fresh NULLs with zeroed payloads.
    std::vector<int64_t> with_misses{0, -1, 5, -1, 299};
    Column padded = src.GatherNullable(with_misses.data(), 5);
    ASSERT_EQ(padded.size(), 5);
    EXPECT_TRUE(padded.IsNull(1));
    EXPECT_TRUE(padded.IsNull(3));
    ExpectSameRows(padded, src, 0, 0);
    ExpectSameRows(padded, src, 2, 5);
    ExpectSameRows(padded, src, 4, 299);
    switch (type) {
      case DataType::kDouble:
        EXPECT_EQ(padded.DoubleAt(1), 0.0);
        break;
      case DataType::kString:
        EXPECT_TRUE(padded.StrAt(1).empty());
        break;
      default:
        EXPECT_EQ(padded.IntAt(1), 0);
        break;
    }
  }
}

TEST_P(ValidityPropertyTest, PagePrimitivesCarryValidity) {
  Random rng(200 + GetParam());
  std::vector<bool> ni, nd, ns;
  PagePtr page = Page::Make({RandomNullable(DataType::kInt64, 257, &rng, &ni),
                             RandomNullable(DataType::kDouble, 257, &rng, &nd),
                             RandomNullable(DataType::kString, 257, &rng,
                                            &ns)});
  // Select (the filter path) keeps per-row validity aligned.
  std::vector<int32_t> keep;
  for (int32_t i = 0; i < 257; ++i) {
    if (rng.NextInt(0, 1) == 0) keep.push_back(i);
  }
  PagePtr selected = page->Select(keep);
  ASSERT_EQ(selected->num_rows(), static_cast<int64_t>(keep.size()));
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < keep.size(); ++i) {
      ExpectSameRows(selected->column(c), page->column(c),
                     static_cast<int64_t>(i), keep[i]);
    }
  }
  // Concat across pages with different validity shapes: an all-valid
  // page concatenated after a nullable one must backfill, and vice versa.
  Column all_valid(DataType::kInt64);
  Column all_valid_d(DataType::kDouble);
  Column all_valid_s(DataType::kString);
  for (int i = 0; i < 40; ++i) {
    all_valid.AppendInt(i);
    all_valid_d.AppendDouble(i * 0.5);
    all_valid_s.AppendStr("v" + std::to_string(i));
  }
  PagePtr dense = Page::Make({std::move(all_valid), std::move(all_valid_d),
                              std::move(all_valid_s)});
  for (const auto& order :
       std::vector<std::vector<PagePtr>>{{page, dense}, {dense, page}}) {
    PagePtr cat = Page::Concat(order);
    ASSERT_EQ(cat->num_rows(), 297);
    int64_t offset = 0;
    for (const PagePtr& part : order) {
      for (int c = 0; c < 3; ++c) {
        for (int64_t r = 0; r < part->num_rows(); ++r) {
          ExpectSameRows(cat->column(c), part->column(c), offset + r, r);
        }
      }
      offset += part->num_rows();
    }
  }
  // Serialize round-trips the validity buffer (and its absence) exactly.
  auto restored = Page::Deserialize(page->Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE((*restored)->column(c).may_have_nulls());
    for (int64_t r = 0; r < 257; ++r) {
      ExpectSameRows((*restored)->column(c), page->column(c), r, r);
    }
  }
  auto dense_restored = Page::Deserialize(dense->Serialize());
  ASSERT_TRUE(dense_restored.ok());
  for (int c = 0; c < 3; ++c) {
    // All-valid columns stay on the empty-buffer fast path on the wire.
    EXPECT_FALSE((*dense_restored)->column(c).may_have_nulls());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidityPropertyTest, ::testing::Range(0, 6));

TEST(ValidityTest, EmptyBufferMeansAllValid) {
  Column col = MakeIntColumn({1, 2, 3});
  EXPECT_FALSE(col.may_have_nulls());
  EXPECT_FALSE(col.IsNull(0));
  // EnsureValidity materializes all-valid without changing semantics.
  col.EnsureValidity();
  EXPECT_TRUE(col.may_have_nulls());
  EXPECT_FALSE(col.IsNull(2));
  // SetNull flips one row, preserving its payload.
  col.SetNull(1);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.IntAt(1), 2);
  // AppendNull after the fact extends both buffers in lockstep.
  col.AppendNull();
  EXPECT_EQ(col.size(), 4);
  EXPECT_TRUE(col.IsNull(3));
  EXPECT_EQ(col.IntAt(3), 0);
}

TEST(ValidityTest, FirstNullBackfillsEarlierRowsAsValid) {
  Column col(DataType::kString);
  col.AppendStr("a");
  col.AppendStr("b");
  ASSERT_FALSE(col.may_have_nulls());
  col.AppendNull();
  ASSERT_EQ(col.validity(), (std::vector<uint8_t>{1, 1, 0}));
  col.AppendStr("c");
  ASSERT_EQ(col.validity(), (std::vector<uint8_t>{1, 1, 0, 1}));
}

TEST(ValidityTest, SharedColumnViewsSeeTheSameValidity) {
  // Project/column-ref expressions share physical columns zero-copy; the
  // validity buffer rides along because it IS part of the column object.
  std::vector<bool> is_null;
  Random rng(3);
  PagePtr base =
      Page::Make({RandomNullable(DataType::kInt64, 50, &rng, &is_null)});
  PagePtr view = Page::MakeShared({base->shared_column(0)});
  EXPECT_EQ(&view->column(0), &base->column(0));
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(view->column(0).IsNull(r), is_null[r]);
  }
  EXPECT_EQ(view->column(0).validity().data(),
            base->column(0).validity().data());
}

}  // namespace
}  // namespace accordion
