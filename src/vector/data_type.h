#ifndef ACCORDION_VECTOR_DATA_TYPE_H_
#define ACCORDION_VECTOR_DATA_TYPE_H_

#include <cstdint>
#include <limits>
#include <string>

namespace accordion {

/// Physical column types. TPC-H needs exactly these:
///  - kInt64: integer keys/quantities,
///  - kDouble: prices/discounts,
///  - kString: names/comments/flags,
///  - kDate: calendar dates stored as int64 days since 1970-01-01,
///  - kBool: filter results, stored as int64 0/1.
enum class DataType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2, kDate = 3, kBool = 4 };

const char* DataTypeName(DataType type);

/// True for types whose values live in the int64 payload (int64/date/bool).
inline bool IsIntegerBacked(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDate ||
         type == DataType::kBool;
}

/// ParseDate's result for text that is not a valid date.
inline constexpr int64_t kInvalidDate = std::numeric_limits<int64_t>::min();

/// Converts 'YYYY-MM-DD' to days since epoch: exactly four, two and two
/// digits, a month in 1..12 and a day that exists in that month (Gregorian
/// leap years), nothing before or after. Anything else is kInvalidDate.
int64_t ParseDate(const std::string& text);

/// Formats days-since-epoch back to 'YYYY-MM-DD'.
std::string FormatDate(int64_t days);

/// Extracts the calendar year of a days-since-epoch date.
int64_t DateYear(int64_t days);

}  // namespace accordion

#endif  // ACCORDION_VECTOR_DATA_TYPE_H_
