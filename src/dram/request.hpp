#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
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
/// instead of a Request's 40, the bank implied by the stream.
struct RequestSlot {
  Cycles arrival = 0;
  std::uint32_t row = 0;
  bool write = false;
};

/// A run's requests split into per-bank streams of RequestSlots, checked
/// once: the input of MemoryController::RunStreams.  It is immutable, so
/// every run over the same requests shares one (core::RunWorkload runs its
/// three policies over one set).  The slots are bank-major in one array;
/// bank b's stream is [offset(b), offset(b + 1)), in arrival order.
class RequestStreams {
 public:
  /// The streams of `requests` for `banks` banks of `rows` rows.
  /// \throws vrl::ConfigError, with this precedence, when the requests are
  /// not arrival-sorted, one names a bank >= `banks`, or one names a row
  /// >= `rows`.
  RequestStreams(const std::vector<Request>& requests, std::size_t banks,
                 std::size_t rows)
      : RequestStreams(Split(
            requests.size(), banks, rows,
            [&](std::size_t i) -> const Request& { return requests[i]; })) {}

  /// The general form: `n` requests, the i-th produced by `at(i)` as a
  /// Request (or a reference to one).  `at` is called twice per request —
  /// a counting pass, which also checks the input, then a scatter — so a
  /// producer decoding cheap records (trace::MapToStreams) needs no
  /// intermediate Request vector.  Throws as the constructor does.
  template <typename At>
  static RequestStreams Split(std::size_t n, std::size_t banks,
                              std::size_t rows, At at);

  std::size_t banks() const { return offsets_.size() - 1; }
  /// The row bound the requests were checked against.
  std::size_t rows() const { return rows_; }
  /// Requests over all banks.
  std::size_t size() const { return slots_.size(); }

  /// Every bank's stream, bank-major.
  const std::vector<RequestSlot>& slots() const { return slots_; }
  /// First slot of `bank`'s stream; offset(banks()) == size().
  std::size_t offset(std::size_t bank) const { return offsets_[bank]; }
  std::span<const RequestSlot> stream(std::size_t bank) const {
    return {slots_.data() + offsets_[bank], offsets_[bank + 1] - offsets_[bank]};
  }

 private:
  RequestStreams() = default;

  std::vector<RequestSlot> slots_;
  std::vector<std::size_t> offsets_;  ///< banks() + 1 entries.
  std::size_t rows_ = 0;
};

template <typename At>
RequestStreams RequestStreams::Split(std::size_t n, std::size_t banks,
                                     std::size_t rows, At at) {
  RequestStreams streams;
  streams.rows_ = rows;
  // offsets_[b + 1] counts bank b's requests, then the prefix sum turns the
  // counts into stream bounds.
  streams.offsets_.assign(banks + 1, 0);
  bool bad_bank = false;
  bool bad_row = false;
  Cycles previous = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = at(i);
    if (r.arrival < previous) {
      throw ConfigError(
          "MemoryController::Run: requests must be arrival-sorted");
    }
    previous = r.arrival;
    if (r.bank >= banks) {
      bad_bank = true;
      continue;
    }
    bad_row = bad_row || r.row >= rows;
    ++streams.offsets_[r.bank + 1];
  }
  if (bad_bank) {
    throw ConfigError("MemoryController::Run: request bank out of range");
  }
  if (bad_row) {
    throw ConfigError("Bank: request row out of range");
  }
  for (std::size_t b = 0; b < banks; ++b) {
    streams.offsets_[b + 1] += streams.offsets_[b];
  }
  std::vector<std::size_t> next(streams.offsets_.begin(),
                                streams.offsets_.end() - 1);
  streams.slots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = at(i);
    // The rows passed the range check above, and MemoryController keeps
    // rows per bank within 32 bits, so the narrowing is exact.
    streams.slots_[next[r.bank]++] = {r.arrival,
                                      static_cast<std::uint32_t>(r.row),
                                      r.type == RequestType::kWrite};
  }
  return streams;
}

}  // namespace vrl::dram
