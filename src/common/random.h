#ifndef ACCORDION_COMMON_RANDOM_H_
#define ACCORDION_COMMON_RANDOM_H_

#include <cstdint>
#include <string>

namespace accordion {

/// Deterministic splitmix64-based RNG. Used by the TPC-H generator and
/// property tests so runs are reproducible across machines.
class Random {
 public:
  explicit Random(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t NextUint64() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Advances past `n` draws in O(1): every draw is one state step, so the
  /// stream then continues exactly as after `n` calls to NextUint64.
  void Skip(uint64_t n) { state_ += n * 0x9E3779B97F4A7C15ULL; }

  /// Uniform integer in [lo, hi] inclusive. Exactly one draw, with no
  /// rejection loop: the TPC-H generator skips unread columns with Skip.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextUint64() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Writes `len` random lowercase characters to `out`, one draw each.
  void FillString(char* out, int len) {
    // Draws from a copy: `out` may alias anything, so drawing from *this
    // would reload and store the state around every character.
    Random rng = *this;
    for (int i = 0; i < len; ++i) {
      out[i] = static_cast<char>('a' + rng.NextInt(0, 25));
    }
    *this = rng;
  }

  /// Random lowercase string of exactly `len` characters.
  std::string NextString(int len) {
    std::string s(len, 'a');
    FillString(s.data(), len);
    return s;
  }

 private:
  uint64_t state_;
};

}  // namespace accordion

#endif  // ACCORDION_COMMON_RANDOM_H_
