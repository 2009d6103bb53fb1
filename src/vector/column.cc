#include "vector/column.h"

#include "vector/hashing.h"

namespace accordion {

namespace {

// Folded into the hash seed for NULL rows so a NULL hashes differently
// from the zeroed payload it stores (0 / 0.0 / ""). Every NULL of a column
// hashes identically, so partitioned shuffles and GROUP BY keep all NULLs
// together.
constexpr uint64_t kNullHashSentinel = 0x6e756c6c6b657921ULL;  // "nullkey!"

}  // namespace

int64_t Column::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(validity_.size());
  switch (type_) {
    case DataType::kDouble:
      return bytes + static_cast<int64_t>(doubles_.size() * sizeof(double));
    case DataType::kString: {
      for (const auto& s : strings_) bytes += 4 + static_cast<int64_t>(s.size());
      return bytes;
    }
    default:
      return bytes + static_cast<int64_t>(ints_.size() * sizeof(int64_t));
  }
}

void Column::EnsureValidity() {
  if (validity_.empty()) validity_.assign(static_cast<size_t>(size()), 1);
}

void Column::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    default:
      ints_.push_back(0);
      break;
  }
  validity_.push_back(0);
}

void Column::SetNull(int64_t i) {
  EnsureValidity();
  validity_[i] = 0;
}

Value Column::ValueAt(int64_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  Value v;
  v.type = type_;
  switch (type_) {
    case DataType::kDouble:
      v.f64 = doubles_[i];
      break;
    case DataType::kString:
      v.str = strings_[i];
      break;
    default:
      v.i64 = ints_[i];
      break;
  }
  return v;
}

void Column::AppendValue(const Value& v) {
  ACC_CHECK(v.type == type_) << "appending " << DataTypeName(v.type) << " to "
                             << DataTypeName(type_) << " column";
  if (v.is_null) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(v.f64);
      break;
    case DataType::kString:
      strings_.push_back(v.str);
      break;
    default:
      ints_.push_back(v.i64);
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void Column::AppendFrom(const Column& other, int64_t row) {
  if (other.IsNull(row)) {
    // NULL rows keep a zeroed payload, so this copies payload + validity.
    // EnsureValidity must run before the payload push (it sizes the
    // buffer from size()), which AppendNull already orders correctly.
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(other.doubles_[row]);
      break;
    case DataType::kString:
      strings_.push_back(other.strings_[row]);
      break;
    default:
      ints_.push_back(other.ints_[row]);
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void Column::AppendRange(const Column& other, int64_t start, int64_t count) {
  switch (type_) {
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin() + start,
                      other.doubles_.begin() + start + count);
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), other.strings_.begin() + start,
                      other.strings_.begin() + start + count);
      break;
    default:
      ints_.insert(ints_.end(), other.ints_.begin() + start,
                   other.ints_.begin() + start + count);
      break;
  }
  if (other.may_have_nulls()) {
    if (validity_.empty()) {
      validity_.assign(static_cast<size_t>(size() - count), 1);
    }
    validity_.insert(validity_.end(), other.validity_.begin() + start,
                     other.validity_.begin() + start + count);
  } else if (!validity_.empty()) {
    validity_.insert(validity_.end(), static_cast<size_t>(count), 1);
  }
}

namespace {

// Indexed gather into pre-sized buffers: no per-element capacity checks,
// and the compiler vectorizes the fixed-width loops.
template <typename T, typename Index>
void GatherInto(const std::vector<T>& src, const Index* indices, int64_t count,
                std::vector<T>* dst) {
  dst->resize(static_cast<size_t>(count));
  T* out = dst->data();
  const T* in = src.data();
  for (int64_t i = 0; i < count; ++i) out[i] = in[indices[i]];
}

template <typename T, typename Index>
void GatherAppend(const std::vector<T>& src, const Index* indices,
                  int64_t count, std::vector<T>* dst) {
  size_t old = dst->size();
  dst->resize(old + static_cast<size_t>(count));
  T* out = dst->data() + old;
  const T* in = src.data();
  for (int64_t i = 0; i < count; ++i) out[i] = in[indices[i]];
}

template <typename Index>
void GatherStrings(const std::vector<std::string>& src, const Index* indices,
                   int64_t count, std::vector<std::string>* dst) {
  dst->reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) dst->push_back(src[indices[i]]);
}

}  // namespace

Column Column::Gather(const std::vector<int32_t>& indices) const {
  return Gather(indices.data(), static_cast<int64_t>(indices.size()));
}

Column Column::Gather(const int32_t* indices, int64_t count) const {
  Column out(type_);
  switch (type_) {
    case DataType::kDouble:
      GatherInto(doubles_, indices, count, &out.doubles_);
      break;
    case DataType::kString:
      GatherStrings(strings_, indices, count, &out.strings_);
      break;
    default:
      GatherInto(ints_, indices, count, &out.ints_);
      break;
  }
  if (!validity_.empty()) GatherInto(validity_, indices, count, &out.validity_);
  return out;
}

void Column::AppendGather(const Column& other, const int32_t* rows,
                          int64_t count) {
  switch (type_) {
    case DataType::kDouble:
      GatherAppend(other.doubles_, rows, count, &doubles_);
      break;
    case DataType::kString:
      strings_.reserve(strings_.size() + static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) strings_.push_back(other.strings_[rows[i]]);
      break;
    default:
      GatherAppend(other.ints_, rows, count, &ints_);
      break;
  }
  if (other.may_have_nulls()) {
    if (validity_.empty()) {
      validity_.assign(static_cast<size_t>(size() - count), 1);
    }
    GatherAppend(other.validity_, rows, count, &validity_);
  } else if (!validity_.empty()) {
    validity_.insert(validity_.end(), static_cast<size_t>(count), 1);
  }
}

Column Column::Gather(const int64_t* indices, int64_t count) const {
  Column out(type_);
  switch (type_) {
    case DataType::kDouble:
      GatherInto(doubles_, indices, count, &out.doubles_);
      break;
    case DataType::kString:
      GatherStrings(strings_, indices, count, &out.strings_);
      break;
    default:
      GatherInto(ints_, indices, count, &out.ints_);
      break;
  }
  if (!validity_.empty()) GatherInto(validity_, indices, count, &out.validity_);
  return out;
}

uint64_t Column::HashAt(int64_t i, uint64_t seed) const {
  if (IsNull(i)) return Mix64(seed ^ kNullHashSentinel);
  switch (type_) {
    case DataType::kDouble: {
      uint64_t bits;
      double d = doubles_[i];
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ seed);
    }
    case DataType::kString: {
      const std::string& s = strings_[i];
      return HashBytes(s.data(), s.size(), seed);
    }
    default:
      return Mix64(static_cast<uint64_t>(ints_[i]) ^ seed);
  }
}

void Column::HashInto(std::vector<uint64_t>* hashes) const {
  const int64_t n = size();
  ACC_CHECK(static_cast<int64_t>(hashes->size()) == n)
      << "HashInto size mismatch";
  uint64_t* h = hashes->data();
  const uint8_t* valid = validity_.empty() ? nullptr : validity_.data();
  switch (type_) {
    case DataType::kDouble:
      for (int64_t i = 0; i < n; ++i) {
        if (valid && valid[i] == 0) {
          h[i] = Mix64(h[i] ^ kNullHashSentinel);
          continue;
        }
        uint64_t bits;
        __builtin_memcpy(&bits, &doubles_[i], sizeof(bits));
        h[i] = Mix64(bits ^ h[i]);
      }
      break;
    case DataType::kString:
      for (int64_t i = 0; i < n; ++i) {
        if (valid && valid[i] == 0) {
          h[i] = Mix64(h[i] ^ kNullHashSentinel);
          continue;
        }
        h[i] = HashBytes(strings_[i].data(), strings_[i].size(), h[i]);
      }
      break;
    default:
      for (int64_t i = 0; i < n; ++i) {
        if (valid && valid[i] == 0) {
          h[i] = Mix64(h[i] ^ kNullHashSentinel);
          continue;
        }
        h[i] = Mix64(static_cast<uint64_t>(ints_[i]) ^ h[i]);
      }
      break;
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  validity_.clear();
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    default:
      ints_.reserve(n);
      break;
  }
  if (!validity_.empty()) validity_.reserve(n);
}

}  // namespace accordion
