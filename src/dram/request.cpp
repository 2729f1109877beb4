#include "dram/request.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace vrl::dram {
namespace {

[[noreturn]] void ThrowUnsorted() {
  throw ConfigError("MemoryController::Run: requests must be arrival-sorted");
}

/// The builder of `requests`' streams, checked for arrival order across
/// the banks.
RequestStreamBuilder Split(const std::vector<Request>& requests,
                           std::size_t banks, std::size_t rows) {
  RequestStreamBuilder builder(banks, rows);
  // A counting pass checks the order and sizes each stream once; the
  // appends then never reallocate.
  std::vector<std::size_t> counts(banks, 0);
  Cycles previous = 0;
  for (const Request& r : requests) {
    if (r.arrival < previous) {
      ThrowUnsorted();
    }
    previous = r.arrival;
    if (r.bank < banks) {
      ++counts[r.bank];
    }
  }
  for (std::size_t b = 0; b < banks; ++b) {
    builder.Reserve(b, counts[b]);
  }
  for (const Request& r : requests) {
    builder.Append(r.bank, r.arrival, r.row, r.type == RequestType::kWrite);
  }
  return builder;
}

}  // namespace

void CheckSlotRows(std::string_view who, std::size_t rows) {
  if (rows > RequestSlot::kMaxRows) {
    throw ConfigError(std::string(who) + ": " + std::to_string(rows) +
                      " rows per bank exceed a request slot's 31-bit row "
                      "field");
  }
}

Cycles BankStream::BaseOf(std::size_t i) const {
  // The last step at or before slot i; none means the high bits are 0.
  const auto after = std::upper_bound(
      steps_.begin(), steps_.end(), i,
      [](std::size_t slot, const Step& step) { return slot < step.first; });
  return after == steps_.begin() ? 0 : std::prev(after)->base;
}

RequestStreamBuilder::RequestStreamBuilder(std::size_t banks,
                                           std::size_t rows)
    : streams_(banks), tails_(banks), rows_(rows) {
  CheckSlotRows("RequestStreams", rows);
}

void RequestStreamBuilder::Reserve(std::size_t bank, std::size_t slots) {
  std::vector<RequestSlot>& stream = streams_[bank].slots;
  stream.reserve(stream.size() + slots);
}

void RequestStreamBuilder::ThrowUnsorted() { dram::ThrowUnsorted(); }

RequestStreams::RequestStreams(const std::vector<Request>& requests,
                               std::size_t banks, std::size_t rows)
    : RequestStreams(Split(requests, banks, rows)) {}

RequestStreams::RequestStreams(RequestStreamBuilder&& builder)
    : streams_(std::move(builder.streams_)), rows_(builder.rows_) {
  if (builder.bad_bank_) {
    throw ConfigError("MemoryController::Run: request bank out of range");
  }
  if (builder.bad_row_) {
    throw ConfigError("Bank: request row out of range");
  }
  offsets_.assign(streams_.size() + 1, 0);
  for (std::size_t b = 0; b < streams_.size(); ++b) {
    offsets_[b + 1] = offsets_[b] + streams_[b].slots.size();
  }
}

}  // namespace vrl::dram
