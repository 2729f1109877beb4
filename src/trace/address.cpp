#include "trace/address.hpp"

#include <bit>

namespace vrl::trace {

AddressMapper::AddressMapper(const AddressGeometry& geometry)
    : geometry_(geometry) {
  geometry_.Validate();
  const auto bits = [](std::size_t n) {
    return static_cast<unsigned>(std::countr_zero(n));
  };
  // The line count must fit in 64 bits for the mask to equal the modulus.
  pow2_ = std::has_single_bit(geometry_.banks) &&
          std::has_single_bit(geometry_.rows) &&
          std::has_single_bit(geometry_.columns) &&
          bits(geometry_.banks) + bits(geometry_.rows) +
                  bits(geometry_.columns) < 64;
  if (pow2_) {
    bank_bits_ = bits(geometry_.banks);
    column_bits_ = bits(geometry_.columns);
  }
}

AddressMapper::Coordinates AddressMapper::Decode(std::uint64_t address) const {
  if (pow2_) {
    const std::uint64_t wrapped = address & (geometry_.TotalLines() - 1);
    Coordinates c;
    c.bank = static_cast<std::size_t>(wrapped & (geometry_.banks - 1));
    const std::uint64_t rest = wrapped >> bank_bits_;
    c.column = static_cast<std::size_t>(rest & (geometry_.columns - 1));
    c.row = static_cast<std::size_t>(rest >> column_bits_);
    return c;
  }
  const std::uint64_t wrapped = address % geometry_.TotalLines();
  Coordinates c;
  c.bank = static_cast<std::size_t>(wrapped % geometry_.banks);
  const std::uint64_t rest = wrapped / geometry_.banks;
  c.column = static_cast<std::size_t>(rest % geometry_.columns);
  c.row = static_cast<std::size_t>(rest / geometry_.columns % geometry_.rows);
  return c;
}

std::uint64_t AddressMapper::Encode(const Coordinates& c) const {
  if (c.bank >= geometry_.banks || c.row >= geometry_.rows ||
      c.column >= geometry_.columns) {
    throw ConfigError("AddressMapper::Encode: coordinates out of range");
  }
  return (static_cast<std::uint64_t>(c.row) * geometry_.columns + c.column) *
             geometry_.banks +
         c.bank;
}

namespace {

dram::Request MapRecord(const TraceRecord& rec, const AddressMapper& mapper) {
  const auto c = mapper.Decode(rec.address);
  dram::Request r;
  r.arrival = rec.cycle;
  r.bank = c.bank;
  r.row = c.row;
  r.column = c.column;
  r.type = rec.is_write ? dram::RequestType::kWrite : dram::RequestType::kRead;
  return r;
}

}  // namespace

std::vector<dram::Request> MapToRequests(
    const std::vector<TraceRecord>& records, const AddressMapper& mapper) {
  std::vector<dram::Request> requests;
  requests.reserve(records.size());
  for (const TraceRecord& rec : records) {
    requests.push_back(MapRecord(rec, mapper));
  }
  return requests;
}

}  // namespace vrl::trace
