#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "dram/request.hpp"

/// \file address.hpp
/// Cache-line address space and its mapping onto DRAM coordinates.
///
/// Traces carry flat cache-line addresses (as Ramulator's traces do); the
/// mapper interleaves consecutive lines across banks, then columns, then
/// rows — the standard open-page-friendly layout.

namespace vrl::trace {

struct AddressGeometry {
  std::size_t banks = 8;
  std::size_t rows = 8192;
  std::size_t columns = 32;

  std::uint64_t TotalLines() const {
    return static_cast<std::uint64_t>(banks) * rows * columns;
  }

  void Validate() const {
    if (banks == 0 || rows == 0 || columns == 0) {
      throw ConfigError("AddressGeometry: all dimensions must be non-zero");
    }
  }
};

/// Maps flat line addresses to (bank, row, column) and back.
class AddressMapper {
 public:
  explicit AddressMapper(const AddressGeometry& geometry);

  struct Coordinates {
    std::size_t bank = 0;
    std::size_t row = 0;
    std::size_t column = 0;
  };

  /// Address layout: bank bits fastest, then column, then row.  When
  /// banks, rows and columns are all powers of two (the default 8 × 8192 ×
  /// 32) the fields are masks and shifts; any other geometry divides.
  Coordinates Decode(std::uint64_t address) const;
  std::uint64_t Encode(const Coordinates& c) const;

  const AddressGeometry& geometry() const { return geometry_; }

 private:
  AddressGeometry geometry_;
  bool pow2_ = false;         ///< Decode by masks and shifts.
  unsigned bank_bits_ = 0;    ///< log2(banks) when pow2_.
  unsigned column_bits_ = 0;  ///< log2(columns) when pow2_.
};

/// One raw trace record (what trace files store).
struct TraceRecord {
  Cycles cycle = 0;
  std::uint64_t address = 0;  ///< Flat cache-line address.
  bool is_write = false;
};

/// Maps raw records to bank-level requests using the geometry.
std::vector<dram::Request> MapToRequests(const std::vector<TraceRecord>& records,
                                         const AddressMapper& mapper);

}  // namespace vrl::trace
