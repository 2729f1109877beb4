#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

/// \file request.hpp
/// Memory access requests fed into the bank simulator.

namespace vrl::dram {

enum class RequestType { kRead, kWrite };

struct Request {
  Cycles arrival = 0;        ///< Cycle the request reaches the controller.
  std::size_t bank = 0;
  std::size_t row = 0;
  std::size_t column = 0;
  RequestType type = RequestType::kRead;
};

/// A request as the memory controller's per-bank streams hold it: 16 bytes
/// instead of a Request's 40, the bank implied by the stream.  A stream's
/// pending requests are its unserved slots between the oldest pending one
/// and the first not yet arrived; `served` marks a slot the scheduler took
/// out of order (FR-FCFS) ahead of older ones.
struct RequestSlot {
  Cycles arrival = 0;
  std::uint32_t row = 0;
  bool write = false;
  bool served = false;
};

}  // namespace vrl::dram
