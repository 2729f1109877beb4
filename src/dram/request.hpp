#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
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

/// A request as the memory controller's per-bank streams hold it: 8 bytes
/// instead of a Request's 40.  It keeps the low 32 bits of the arrival
/// cycle (the stream keeps the high ones, see BankStream), the row in 31
/// bits and the write bit; the bank is implied by the stream.
class RequestSlot {
 public:
  /// The most rows per bank a slot can name: its row field is 31 bits.
  static constexpr std::size_t kMaxRows = (std::size_t{1} << 31) - 1;

  constexpr RequestSlot() = default;
  /// `row` must be below 2^31.
  constexpr RequestSlot(std::uint32_t arrival_low, std::uint32_t row,
                        bool write)
      : arrival_low_(arrival_low), row_write_(row << 1 | (write ? 1u : 0u)) {}

  /// The arrival cycle's low 32 bits.
  constexpr std::uint32_t arrival_low() const { return arrival_low_; }
  constexpr std::uint32_t row() const { return row_write_ >> 1; }
  constexpr bool write() const { return (row_write_ & 1u) != 0; }

 private:
  std::uint32_t arrival_low_ = 0;
  std::uint32_t row_write_ = 0;  ///< row << 1 | write
};
static_assert(sizeof(RequestSlot) == 8, "a request slot is 8 bytes");

/// \throws vrl::ConfigError, naming `who`, when `rows` rows per bank do not
/// fit a RequestSlot's row field.
void CheckSlotRows(std::string_view who, std::size_t rows);

/// One bank's stream, read-only: its slots in arrival order, and the few
/// slots where the arrivals' high 32 bits step up.  The arrivals are
/// sorted, so a stream shorter than 2^32 cycles has no step and its
/// arrivals are the slots' low bits.
class BankStream {
 public:
  /// Slots from `first` on (up to the next step) arrived at `base` plus
  /// their low bits; `base`'s low 32 bits are 0.
  struct Step {
    std::size_t first = 0;
    Cycles base = 0;
  };

  BankStream() = default;
  BankStream(std::span<const RequestSlot> slots, std::span<const Step> steps)
      : slots_(slots), steps_(steps) {}

  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  const RequestSlot& operator[](std::size_t i) const { return slots_[i]; }
  std::span<const RequestSlot> slots() const { return slots_; }

  /// Slot `i`'s arrival cycle, exact for any Cycles.
  Cycles arrival(std::size_t i) const {
    const Cycles low = slots_[i].arrival_low();
    return steps_.empty() ? low : (BaseOf(i) | low);
  }

 private:
  /// The high bits of slot `i`'s arrival.
  Cycles BaseOf(std::size_t i) const;

  std::span<const RequestSlot> slots_;
  std::span<const Step> steps_;
};

class RequestStreamBuilder;

/// A run's requests split into per-bank streams of RequestSlots, checked
/// once: the input of MemoryController::RunStreams.  It is immutable, so
/// every run over the same requests shares one (core::RunWorkload runs its
/// three policies over one set).  Each bank owns its stream, in arrival
/// order; offset(b) numbers the slots bank-major across the streams.
class RequestStreams {
 public:
  /// The streams of `requests` for `banks` banks of `rows` rows.
  /// \throws vrl::ConfigError, with this precedence, when `rows` does not
  /// fit a RequestSlot, the requests are not arrival-sorted, one names a
  /// bank >= `banks`, or one names a row >= `rows`.
  RequestStreams(const std::vector<Request>& requests, std::size_t banks,
                 std::size_t rows);

  /// The streams a builder appended (trace::GenerateStreams).  Each stream
  /// is sorted on its own, not against the others.
  /// \throws vrl::ConfigError, with the messages above and the bank error
  /// first, when an append named a bank or a row out of range.
  explicit RequestStreams(RequestStreamBuilder&& builder);

  std::size_t banks() const { return streams_.size(); }
  /// The row bound the requests were checked against.
  std::size_t rows() const { return rows_; }
  /// Requests over all banks.
  std::size_t size() const { return offsets_.back(); }

  /// Slots before `bank`'s stream, counted bank-major; offset(banks()) ==
  /// size().
  std::size_t offset(std::size_t bank) const { return offsets_[bank]; }
  BankStream stream(std::size_t bank) const {
    return {streams_[bank].slots, streams_[bank].steps};
  }

 private:
  friend class RequestStreamBuilder;

  struct Stream {
    std::vector<RequestSlot> slots;
    std::vector<BankStream::Step> steps;
  };
  std::vector<Stream> streams_;
  std::vector<std::size_t> offsets_;  ///< banks() + 1 entries.
  std::size_t rows_ = 0;
};

/// Builds RequestStreams one request at a time: the one place a stream is
/// appended to (both RequestStreams constructors and
/// trace::GenerateStreams go through it).
class RequestStreamBuilder {
 public:
  /// \throws vrl::ConfigError when `rows` does not fit a RequestSlot.
  RequestStreamBuilder(std::size_t banks, std::size_t rows);

  /// Room for `slots` more requests in `bank`'s stream (`bank` < banks).
  void Reserve(std::size_t bank, std::size_t slots);

  /// Appends a request to `bank`'s stream.
  /// \throws vrl::ConfigError at once when `arrival` precedes the bank's
  /// previous one.  A bank >= banks or a row >= rows is remembered and
  /// thrown, bank first, by RequestStreams(RequestStreamBuilder&&), so an
  /// unsorted stream anywhere outranks it.
  void Append(std::size_t bank, Cycles arrival, std::size_t row, bool write) {
    if (bank >= streams_.size()) {
      bad_bank_ = true;
      return;
    }
    Tail& tail = tails_[bank];
    if (arrival < tail.last) {
      ThrowUnsorted();
    }
    tail.last = arrival;
    if (row >= rows_) {
      bad_row_ = true;
      return;
    }
    RequestStreams::Stream& stream = streams_[bank];
    const Cycles base = arrival & kHighBits;
    if (base != tail.base) {
      stream.steps.push_back({stream.slots.size(), base});
      tail.base = base;
    }
    // The row is below rows_, which fits the slot's 31-bit field.
    stream.slots.emplace_back(static_cast<std::uint32_t>(arrival),
                              static_cast<std::uint32_t>(row), write);
  }

 private:
  friend class RequestStreams;

  static constexpr Cycles kHighBits = ~Cycles{0xFFFF'FFFF};

  [[noreturn]] static void ThrowUnsorted();

  /// A stream's latest arrival, and the high bits of its latest slot's.
  struct Tail {
    Cycles last = 0;
    Cycles base = 0;
  };
  std::vector<RequestStreams::Stream> streams_;
  std::vector<Tail> tails_;
  std::size_t rows_ = 0;
  bool bad_bank_ = false;
  bool bad_row_ = false;
};

}  // namespace vrl::dram
