#ifndef RDFA_COMMON_GALLOP_H_
#define RDFA_COMMON_GALLOP_H_

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace rdfa {

/// std::partition_point over [from, last), found by galloping: probe
/// from+0, +1, +3, +7, ... until an element fails `before`, then binary
/// search the last doubling. Costs O(log d) for a partition point d
/// elements past `from`, so a cursor that resumes each search where the
/// previous one stopped pays for the distance it moves, not for the size of
/// the range. Precondition: [from, last) is partitioned by `before` (every
/// element satisfying it precedes every element that does not).
template <typename It, typename Pred>
It GallopPartition(It from, It last, Pred before) {
  It lo = from;
  It hi = from;
  std::size_t step = 1;
  while (hi != last && before(*hi)) {
    lo = std::next(hi);
    hi = static_cast<std::size_t>(std::distance(lo, last)) > step
             ? std::next(lo, static_cast<std::ptrdiff_t>(step))
             : last;
    step *= 2;
  }
  return std::partition_point(lo, hi, before);
}

}  // namespace rdfa

#endif  // RDFA_COMMON_GALLOP_H_
