// An exact set of int64 ids stored as disjoint, non-adjacent runs [lo, hi].
//
// UniversalLog dedups the ops it has placed into the learned prefix with one.
// A client that numbers its ops with a sequence counter (gam_loadgen,
// perfbench, whitebox's BUMP ops counting down) then costs one run however
// long the log grows, so each insert is a lookup in a map of one node and
// never allocates. Scattered ids still cost one run (one node) per id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

namespace gam::objects {

class RunSet {
 public:
  // Adds x; false when it was already present.
  bool insert(std::int64_t x) {
    auto next = runs_.upper_bound(x);  // first run starting above x
    // next->first > x, so next->first - 1 cannot underflow.
    const bool joins_next = next != runs_.end() && next->first - 1 == x;
    if (next != runs_.begin()) {
      auto prev = std::prev(next);
      if (x <= prev->second) return false;
      // prev->second < x, so x - 1 cannot underflow.
      if (prev->second == x - 1) {
        prev->second = joins_next ? next->second : x;
        if (joins_next) runs_.erase(next);
        return true;
      }
    }
    if (joins_next) {
      auto node = runs_.extract(next);
      node.key() = x;  // grow the run down, reusing its node
      runs_.insert(std::move(node));
    } else {
      runs_.emplace_hint(next, x, x);
    }
    return true;
  }

  bool contains(std::int64_t x) const {
    auto next = runs_.upper_bound(x);
    return next != runs_.begin() && x <= std::prev(next)->second;
  }

  // Number of maximal runs held (one per contiguous stretch of ids).
  std::size_t runs() const { return runs_.size(); }

 private:
  std::map<std::int64_t, std::int64_t> runs_;  // lo -> hi
};

}  // namespace gam::objects
