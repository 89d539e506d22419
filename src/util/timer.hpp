// Wall-clock timing helpers.
#pragma once

#include <chrono>

namespace picprk::util {

/// Monotonic wall-clock timer with second-granularity doubles.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace picprk::util
