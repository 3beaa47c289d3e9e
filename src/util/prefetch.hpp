// Prefetch-ahead loops over a window of events.
//
// Each event of a streamed window reads per-file and per-entity table
// rows at addresses only the event's ids decide, so a plain loop waits on
// one cache miss after another. `for_each_ahead` starts the loads of
// event i + kPrefetchAhead while event i is processed: the software
// prefetch of DRAMHiT, which `util::FlatMap`'s batched probes
// (flat_table.hpp) apply to hash tables.
#pragma once

#include <algorithm>
#include <cstddef>

namespace longtail::util {

// Iterations between an element's prefetch and its body: far enough ahead
// to cover a DRAM miss with the work of the elements in between, near
// enough that the prefetched lines are still cached when the body runs.
inline constexpr std::size_t kPrefetchAhead = 8;

// Runs body(i) for every i in [0, n) in order. prefetch(i) runs once for
// every i, kPrefetchAhead iterations before body(i) (the first ones before
// the loop), and never for an index outside [0, n). prefetch should only
// give cache hints, so that the loop's result does not depend on it.
template <typename Prefetch, typename Body>
void for_each_ahead(std::size_t n, Prefetch&& prefetch, Body&& body) {
  for (std::size_t i = 0; i < std::min(n, kPrefetchAhead); ++i) prefetch(i);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) prefetch(i + kPrefetchAhead);
    body(i);
  }
}

}  // namespace longtail::util
