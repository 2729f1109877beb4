#include "dram/request.hpp"

#include <utility>

#include "common/error.hpp"

namespace vrl::dram {
namespace {

void ThrowUnsorted() {
  throw ConfigError("MemoryController::Run: requests must be arrival-sorted");
}

void ThrowBadRow() { throw ConfigError("Bank: request row out of range"); }

}  // namespace

RequestStreams::RequestStreams(const std::vector<Request>& requests,
                               std::size_t banks, std::size_t rows)
    : streams_(banks), rows_(rows) {
  // A counting pass checks the input and sizes each stream once; the
  // scatter then appends without reallocating.
  std::vector<std::size_t> counts(banks, 0);
  bool bad_bank = false;
  bool bad_row = false;
  Cycles previous = 0;
  for (const Request& r : requests) {
    if (r.arrival < previous) {
      ThrowUnsorted();
    }
    previous = r.arrival;
    if (r.bank >= banks) {
      bad_bank = true;
      continue;
    }
    bad_row = bad_row || r.row >= rows;
    ++counts[r.bank];
  }
  if (bad_bank) {
    throw ConfigError("MemoryController::Run: request bank out of range");
  }
  if (bad_row) {
    ThrowBadRow();
  }
  for (std::size_t b = 0; b < banks; ++b) {
    streams_[b].reserve(counts[b]);
  }
  for (const Request& r : requests) {
    // The rows passed the range check above, and MemoryController keeps
    // rows per bank within 32 bits, so the narrowing is exact.
    streams_[r.bank].push_back({r.arrival, static_cast<std::uint32_t>(r.row),
                                r.type == RequestType::kWrite});
  }
  Index();
}

RequestStreams::RequestStreams(std::vector<std::vector<RequestSlot>> streams,
                               std::size_t rows)
    : streams_(std::move(streams)), rows_(rows) {
  bool bad_row = false;
  for (const std::vector<RequestSlot>& stream : streams_) {
    Cycles previous = 0;
    for (const RequestSlot& slot : stream) {
      if (slot.arrival < previous) {
        ThrowUnsorted();
      }
      previous = slot.arrival;
      bad_row = bad_row || slot.row >= rows;
    }
  }
  if (bad_row) {
    ThrowBadRow();
  }
  Index();
}

void RequestStreams::Index() {
  offsets_.assign(streams_.size() + 1, 0);
  for (std::size_t b = 0; b < streams_.size(); ++b) {
    offsets_[b + 1] = offsets_[b] + streams_[b].size();
  }
}

}  // namespace vrl::dram
