#include "vector/data_type.h"

#include <cstdio>

namespace accordion {
namespace {

constexpr int64_t kDaysPerEra = 146097;  // 400 Gregorian years.

// Howard Hinnant's civil-days algorithms (public domain).
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * kDaysPerEra + doe - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, int64_t* m, int64_t* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - (kDaysPerEra - 1)) / kDaysPerEra;
  const int64_t doe = z - era * kDaysPerEra;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yr = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yr + (*m <= 2);
}

}  // namespace

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kDate:
      return "date";
    case DataType::kBool:
      return "bool";
  }
  return "?";
}

int64_t ParseDate(const std::string& text) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') {
    return kInvalidDate;
  }
  // Decimal value of text[pos, pos + len), or -1 on a non-digit.
  auto digits = [&text](size_t pos, size_t len) -> int64_t {
    int64_t value = 0;
    for (size_t i = pos; i < pos + len; ++i) {
      if (text[i] < '0' || text[i] > '9') return -1;
      value = value * 10 + (text[i] - '0');
    }
    return value;
  };
  const int64_t y = digits(0, 4);
  const int64_t m = digits(5, 2);
  const int64_t d = digits(8, 2);
  if (y < 0 || m < 1 || m > 12 || d < 1) return kInvalidDate;
  static constexpr int64_t kDaysInMonth[12] = {31, 28, 31, 30, 31, 30,
                                               31, 31, 30, 31, 30, 31};
  const bool leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
  if (d > kDaysInMonth[m - 1] + (m == 2 && leap)) return kInvalidDate;
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

int64_t DateYear(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

}  // namespace accordion
