#ifndef FAE_UTIL_STOPWATCH_H_
#define FAE_UTIL_STOPWATCH_H_

#include <chrono>

namespace fae {

/// Monotonic wall-clock stopwatch used by the calibrator latency figures
/// (Fig 8, Fig 10, Fig 11).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fae

#endif  // FAE_UTIL_STOPWATCH_H_
