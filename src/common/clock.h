#ifndef ACCORDION_COMMON_CLOCK_H_
#define ACCORDION_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace accordion {

/// Monotonic time helpers used by the whole engine. All experiment time
/// series are expressed in milliseconds since an explicit origin.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowMillis() { return NowMicros() / 1000; }

inline double NowSeconds() { return static_cast<double>(NowMicros()) * 1e-6; }

inline void SleepForMicros(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

inline void SleepForMillis(int64_t ms) { SleepForMicros(ms * 1000); }

/// Sleeps until the absolute time `until_us` (NowMicros epoch).
inline void SleepUntilMicros(int64_t until_us) {
  SleepForMicros(until_us - NowMicros());
}

/// Simple stopwatch for measuring elapsed wall time.
class Stopwatch {
 public:
  Stopwatch() : start_us_(NowMicros()) {}

  void Restart() { start_us_ = NowMicros(); }
  int64_t ElapsedMicros() const { return NowMicros() - start_us_; }
  int64_t ElapsedMillis() const { return ElapsedMicros() / 1000; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) * 1e-6;
  }

 private:
  int64_t start_us_;
};

}  // namespace accordion

#endif  // ACCORDION_COMMON_CLOCK_H_
