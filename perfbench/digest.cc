#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {
namespace {

using accordion::Column;
using accordion::DataType;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void AppendCell(const Column& column, int64_t row, std::string* out) {
  if (column.IsNull(row)) {
    *out += "\\N";
    return;
  }
  switch (column.type()) {
    case DataType::kDouble: {
      double v = column.DoubleAt(row);
      if (v == 0) {
        *out += "0";  // folds -0.0 into 0.0
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.5e", v);
        *out += buf;
      }
      return;
    }
    case DataType::kString:
      *out += column.StrAt(row);
      return;
    default:
      *out += std::to_string(column.IntAt(row));
  }
}

}  // namespace

Digest DigestPages(const std::vector<PagePtr>& pages) {
  Digest digest;
  std::string row_text;
  for (const PagePtr& page : pages) {
    if (page == nullptr || page->IsEnd()) continue;
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      row_text.clear();
      for (int c = 0; c < page->num_columns(); ++c) {
        AppendCell(page->column(c), r, &row_text);
        row_text += '\x1f';
      }
      // A wrapping sum keeps the hash independent of row order while still
      // counting duplicate rows.
      digest.hash += Mix(Fnv1a(row_text));
      ++digest.rows;
    }
  }
  return digest;
}

bool DigestBook::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read digest file " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hash_hex;
    Digest digest;
    if (!(fields >> key >> digest.rows >> hash_hex)) {
      *error = path + ":" + std::to_string(line_no) + ": malformed digest";
      return false;
    }
    digest.hash = std::stoull(hash_hex, nullptr, 16);
    digests_[key] = digest;
  }
  return true;
}

const Digest* DigestBook::Find(const std::string& key) const {
  auto it = digests_.find(key);
  return it == digests_.end() ? nullptr : &it->second;
}

void DigestBook::Put(const std::string& key, const Digest& digest) {
  digests_[key] = digest;
}

bool DigestBook::Save(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "# Output digests recorded at stage/task DOP 1: key, row count,"
               " order-independent row hash.\n"
               "# Regenerate with: perfbench --record-digests <file>\n");
  for (const auto& [key, digest] : digests_) {
    std::fprintf(out, "%s %lld %016" PRIx64 "\n", key.c_str(),
                 static_cast<long long>(digest.rows), digest.hash);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
