#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
/// three policies over one set).  Each bank owns its stream, in arrival
/// order; offset(b) numbers the slots bank-major across the streams.
class RequestStreams {
 public:
  /// The streams of `requests` for `banks` banks of `rows` rows.
  /// \throws vrl::ConfigError, with this precedence, when the requests are
  /// not arrival-sorted, one names a bank >= `banks`, or one names a row
  /// >= `rows`.
  RequestStreams(const std::vector<Request>& requests, std::size_t banks,
                 std::size_t rows);

  /// Takes over one stream per bank, built without a Request vector
  /// (trace::GenerateStreams).
  /// \throws vrl::ConfigError, with the messages above and this
  /// precedence, when a stream is not arrival-sorted or a slot names a row
  /// >= `rows`.
  RequestStreams(std::vector<std::vector<RequestSlot>> streams,
                 std::size_t rows);

  std::size_t banks() const { return streams_.size(); }
  /// The row bound the requests were checked against.
  std::size_t rows() const { return rows_; }
  /// Requests over all banks.
  std::size_t size() const { return offsets_.back(); }

  /// Slots before `bank`'s stream, counted bank-major; offset(banks()) ==
  /// size().
  std::size_t offset(std::size_t bank) const { return offsets_[bank]; }
  std::span<const RequestSlot> stream(std::size_t bank) const {
    return streams_[bank];
  }

 private:
  /// Sets offsets_ from the streams in place.
  void Index();

  std::vector<std::vector<RequestSlot>> streams_;
  std::vector<std::size_t> offsets_;  ///< banks() + 1 entries.
  std::size_t rows_ = 0;
};

}  // namespace vrl::dram
