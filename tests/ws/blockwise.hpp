// Blockwise initial placement for the pool tests: task t starts on the
// worker whose balanced block (comm::block_range) holds it, so adjacent
// tasks share an owner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/cart.hpp"

namespace picprk::ws::testing {

inline std::vector<int> blockwise_owners(std::size_t count, int workers) {
  std::vector<int> owners(count);
  for (int w = 0; w < workers; ++w) {
    const auto range = comm::block_range(static_cast<std::int64_t>(count), workers, w);
    for (std::int64_t t = range.lo; t < range.hi; ++t) {
      owners[static_cast<std::size_t>(t)] = w;
    }
  }
  return owners;
}

}  // namespace picprk::ws::testing
