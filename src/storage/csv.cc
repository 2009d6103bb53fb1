#include "storage/csv.h"

#include <charconv>
#include <cstdio>

#include "common/logging.h"
#include "optimizer/stats.h"

namespace accordion {
namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

void AppendField(std::string* line, const std::string& field) {
  if (!NeedsQuoting(field)) {
    *line += field;
    return;
  }
  line->push_back('"');
  for (char c : field) {
    if (c == '"') line->push_back('"');
    line->push_back(c);
  }
  line->push_back('"');
}

std::string FormatField(const Column& col, int64_t row) {
  switch (col.type()) {
    case DataType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", col.DoubleAt(row));
      return buf;
    }
    case DataType::kString:
      return col.StrAt(row);
    case DataType::kDate:
      return FormatDate(col.IntAt(row));
    default:
      return std::to_string(col.IntAt(row));
  }
}

/// Splits one CSV record (handles quotes). Returns false on malformed input.
bool SplitRecord(const std::string& line, std::vector<std::string>* fields) {
  fields->clear();
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(current));
  return true;
}

}  // namespace

Status WriteCsvSplit(const std::string& path,
                     const std::vector<PagePtr>& pages) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  std::string line;
  for (const auto& page : pages) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      line.clear();
      for (int c = 0; c < page->num_columns(); ++c) {
        if (c > 0) line.push_back(',');
        AppendField(&line, FormatField(page->column(c), r));
      }
      line.push_back('\n');
      out << line;
    }
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

CsvPageSource::CsvPageSource(std::string path, TableSchema schema,
                             int64_t batch_rows)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      batch_rows_(batch_rows),
      in_(path_) {
  if (!in_) status_ = Status::IoError("cannot open for read: " + path_);
}

PagePtr CsvPageSource::Next() {
  if (!status_.ok() || !in_) return nullptr;
  std::vector<Column> cols;
  for (const auto& def : schema_.columns()) cols.emplace_back(def.type);
  int64_t rows = 0;
  std::string line;
  std::vector<std::string> fields;
  while (rows < batch_rows_ && std::getline(in_, line)) {
    if (line.empty()) continue;
    if (!SplitRecord(line, &fields) ||
        fields.size() != static_cast<size_t>(schema_.num_columns())) {
      status_ = Status::ParseError("malformed CSV record in " + path_);
      return nullptr;
    }
    for (int c = 0; c < schema_.num_columns(); ++c) {
      switch (schema_.TypeOf(c)) {
        case DataType::kDouble: {
          double v = 0;
          auto [ptr, ec] = std::from_chars(
              fields[c].data(), fields[c].data() + fields[c].size(), v);
          if (ec != std::errc()) {
            status_ = Status::ParseError("bad double '" + fields[c] + "'");
            return nullptr;
          }
          cols[c].AppendDouble(v);
          break;
        }
        case DataType::kString:
          cols[c].AppendStr(fields[c]);
          break;
        case DataType::kDate: {
          int64_t days = ParseDate(fields[c]);
          if (days == kInvalidDate) {
            status_ = Status::ParseError("bad date '" + fields[c] + "'");
            return nullptr;
          }
          cols[c].AppendInt(days);
          break;
        }
        default: {
          int64_t v = 0;
          auto [ptr, ec] = std::from_chars(
              fields[c].data(), fields[c].data() + fields[c].size(), v);
          if (ec != std::errc()) {
            status_ = Status::ParseError("bad int '" + fields[c] + "'");
            return nullptr;
          }
          cols[c].AppendInt(v);
          break;
        }
      }
    }
    ++rows;
  }
  if (rows == 0) return nullptr;
  return Page::Make(std::move(cols));
}

Result<TableStats> CollectCsvSplitStats(const std::string& path,
                                        const TableSchema& schema,
                                        int64_t batch_rows) {
  CsvPageSource source(path, schema, batch_rows);
  ACCORDION_RETURN_NOT_OK(source.status());
  TableStats stats = CollectStats(schema, &source);
  // Next() returns nullptr both at EOF and on a parse error; distinguish.
  ACCORDION_RETURN_NOT_OK(source.status());
  return stats;
}

Status ExportTpchSplitCsv(const std::string& table, double scale_factor,
                          int split_index, int split_count,
                          const std::string& path) {
  return WriteCsvSplit(
      path, GenerateSplit(table, scale_factor, split_index, split_count));
}

}  // namespace accordion
