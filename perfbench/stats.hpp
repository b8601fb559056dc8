// Sample statistics for the benchmark: exact nearest-rank quantiles over raw
// samples (no bucketing), an exact tail tracker for quantiles too far out to
// keep every sample, and the failure accounting every workload shares.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Set-ups timed per run, so the reported median is steady: a set-up takes
// 0.1-3 ms and one sample is mostly noise.
inline constexpr int kSetupRepeats = 21;

// A sample that missed every limit: an operation that failed or was never
// delivered by the drain deadline.
inline constexpr std::uint64_t kMissed = std::numeric_limits<std::uint64_t>::max();

// 1-based nearest rank of quantile q over n samples: the smallest rank r with
// r >= q * n. The epsilon keeps q * n that is integral in exact arithmetic
// (0.999 * 1000) from rounding up a rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

// Exact nearest-rank q-quantile of `v` (reordered in place); 0 when empty.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  const std::size_t r = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   v.end());
  return v[r - 1];
}

template <typename T>
T median(std::vector<T> v) {
  return quantile(v, 0.5);
}

// Keeps the `capacity` largest of all samples offered plus the total count,
// which answers a tail quantile exactly as long as its nearest rank falls
// among the kept samples — p99.99 of up to capacity * 10^4 samples.
class TailTracker {
 public:
  explicit TailTracker(std::size_t capacity = 4096) : cap_(capacity) {}

  void add(std::uint64_t x) {
    ++count_;
    if (heap_.size() < cap_) {
      heap_.push(x);
    } else if (x > heap_.top()) {
      heap_.pop();
      heap_.push(x);
    }
  }

  std::uint64_t count() const { return count_; }

  // Nullopt when no samples were seen or the rank lies below the kept tail.
  std::optional<std::uint64_t> quantile(double q) const {
    if (count_ == 0) return std::nullopt;
    const std::uint64_t from_top = count_ - nearest_rank(count_, q);
    if (from_top >= heap_.size()) return std::nullopt;
    auto tail = heap_;
    std::vector<std::uint64_t> sorted;
    while (!tail.empty()) {
      sorted.push_back(tail.top());
      tail.pop();
    }
    // `sorted` is ascending; the largest sample sits at the back.
    return sorted[sorted.size() - 1 - from_top];
  }

  void merge(const TailTracker& other) {
    auto h = other.heap_;
    const std::uint64_t before = count_;
    while (!h.empty()) {
      add(h.top());
      h.pop();
    }
    count_ = before + other.count_;
  }

 private:
  std::size_t cap_;
  std::uint64_t count_ = 0;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap_;
};

// Failure accounting shared by every workload: an attempted operation either
// completed every check or failed; failed ones also miss every latency limit.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool safety_ok = true;

  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  bool correct() const { return safety_ok && attempted > 0 && failed == 0; }
  void add(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    safety_ok = safety_ok && o.safety_ok;
  }
};

}  // namespace perfbench
