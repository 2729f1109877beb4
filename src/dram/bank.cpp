#include "dram/bank.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "dram/auditor.hpp"

namespace vrl::dram {

Bank::Bank(std::size_t rows, const TimingParams& timing,
           RowBufferPolicy policy, std::size_t subarrays)
    : rows_(rows), timing_(timing), policy_(policy) {
  if (rows == 0) {
    throw ConfigError("Bank: need at least one row");
  }
  if (subarrays == 0 || subarrays > rows) {
    throw ConfigError("Bank: subarrays must be in [1, rows]");
  }
  timing_.Validate();
  rows_per_subarray_ = (rows + subarrays - 1) / subarrays;
  subarrays_.resize(subarrays);
}

void Bank::SetAudit(CommandLog* log, std::size_t bank) {
  if (log != nullptr) {
    constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::size_t kMax16 = std::numeric_limits<std::uint16_t>::max();
    if (rows_ > kMax32) {
      throw ConfigError("Bank::SetAudit: " + std::to_string(rows_) +
                        " rows exceed a logged command's 32-bit row field");
    }
    if (subarrays_.size() > kMax16) {
      throw ConfigError("Bank::SetAudit: " +
                        std::to_string(subarrays_.size()) +
                        " subarrays exceed a logged command's 16-bit "
                        "subarray field");
    }
    if (bank > kMax32) {
      throw ConfigError("Bank::SetAudit: bank index " + std::to_string(bank) +
                        " exceeds a logged command's 32-bit bank field");
    }
  }
  audit_ = log;
  audit_bank_ = static_cast<std::uint32_t>(bank);
}

void Bank::Log(Cycles at, CommandKind kind, std::size_t sub, std::size_t row,
               Cycles trfc, RefreshGranularity granularity) {
  if (audit_ != nullptr) {
    // SetAudit and ExecuteRefresh keep every field within its width.
    audit_->Append({at, static_cast<std::uint32_t>(row),
                    static_cast<std::uint32_t>(trfc), audit_bank_,
                    static_cast<std::uint16_t>(sub), kind, granularity});
  }
}

Cycles Bank::SubarrayBusyUntil(std::size_t sub) const {
  if (sub >= subarrays_.size()) {
    throw ConfigError("Bank: subarray index out of range");
  }
  return subarrays_[sub].busy_until;
}

bool Bank::IsRowOpen(std::size_t row) const {
  if (row >= rows_) {
    return false;
  }
  const Subarray& sa = subarrays_[SubarrayOf(row)];
  return sa.open_row.has_value() && *sa.open_row == row;
}

Cycles Bank::EarliestPrecharge(const Subarray& sa, Cycles at) const {
  // tRAS: the row must stay open long enough; tWR: write data must be
  // written back before the row closes.
  Cycles earliest = at;
  if (sa.open_row.has_value()) {
    earliest = std::max(earliest, sa.activated_at + timing_.t_ras);
  }
  return std::max(earliest, sa.write_recovery_until);
}

Cycles Bank::ServiceRequest(const Request& request) {
  if (request.row >= rows_) {
    throw ConfigError("Bank: request row out of range");
  }
  const std::size_t sub = SubarrayOf(request.row);
  Subarray& sa = subarrays_[sub];
  const Cycles start = std::max(request.arrival, sa.busy_until);
  Cycles ready = start;

  if (!sa.open_row.has_value()) {
    // Row empty: ACTIVATE only, floored by tRRD/tFAW when a constraint
    // engine is attached.
    Cycles act = start;
    if (engine_ != nullptr) {
      act = engine_->EarliestActivate(addr_, act);
      engine_->RecordActivate(addr_, act);
    }
    sa.activated_at = act;
    ready = act + timing_.t_rcd;
    sa.open_row = request.row;
    ++stats_.activations;
    ++stats_.row_misses;
    Log(act, CommandKind::kActivate, sub, request.row);
  } else if (*sa.open_row != request.row) {
    // Conflict: PRECHARGE (honoring tRAS/tWR) + ACTIVATE.
    const std::size_t closed_row = *sa.open_row;
    const Cycles pre_start = EarliestPrecharge(sa, start);
    Cycles act = pre_start + timing_.t_rp;
    if (engine_ != nullptr) {
      act = engine_->EarliestActivate(addr_, act);
      engine_->RecordActivate(addr_, act);
    }
    sa.activated_at = act;
    ready = act + timing_.t_rcd;
    sa.open_row = request.row;
    ++stats_.activations;
    ++stats_.row_misses;
    Log(pre_start, CommandKind::kPrecharge, sub, closed_row);
    Log(act, CommandKind::kActivate, sub, request.row);
  } else {
    ++stats_.row_hits;
  }

  // Column access; the data burst serializes on the shared bus — the
  // bank's own with the flat model, the channel's under a hierarchy.
  Cycles burst_start;
  if (engine_ != nullptr) {
    const Cycles col = engine_->EarliestColumn(addr_, ready);
    burst_start = engine_->EarliestBurst(
        addr_, std::max(col + timing_.t_cas, bus_busy_until_));
  } else {
    burst_start = std::max(ready + timing_.t_cas, bus_busy_until_);
  }
  const Cycles completion = burst_start + timing_.t_bus;
  bus_busy_until_ = completion;
  if (engine_ != nullptr) {
    engine_->RecordColumn(addr_, burst_start - timing_.t_cas);
    engine_->RecordBurst(addr_, burst_start, completion);
  }
  Log(burst_start - timing_.t_cas,
      request.type == RequestType::kWrite ? CommandKind::kWrite
                                          : CommandKind::kRead,
      sub, request.row);

  if (request.type == RequestType::kWrite) {
    ++stats_.writes;
    sa.write_recovery_until = completion + timing_.t_wr;
  } else {
    ++stats_.reads;
  }
  stats_.access_busy_cycles += completion - start;
  const Cycles latency = completion - request.arrival;
  stats_.total_request_latency += latency;
  ++stats_.latency_hist[telemetry::LatencyBucketIndex(latency)];
  stats_.last_completion = std::max(stats_.last_completion, completion);
  sa.busy_until = completion;

  if (policy_ == RowBufferPolicy::kClosedPage) {
    // Auto-precharge: the row closes after the access; the next command to
    // this subarray must wait for the precharge to finish.
    const Cycles pre_start = EarliestPrecharge(sa, completion);
    sa.busy_until = pre_start + timing_.t_rp;
    sa.open_row.reset();
    Log(pre_start, CommandKind::kPrecharge, sub, request.row);
  }
  return completion;
}

Cycles Bank::ExecuteRefresh(const RefreshOp& op, Cycles now) {
  if (op.row >= rows_) {
    throw ConfigError("Bank: refresh row out of range");
  }
  if (op.trfc == 0) {
    throw ConfigError("Bank: refresh with zero tRFC");
  }
  if (audit_ != nullptr &&
      op.trfc > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("Bank: logged refresh tRFC " + std::to_string(op.trfc) +
                      " exceeds a logged command's 32-bit tRFC field");
  }
  const std::size_t sub = SubarrayOf(op.row);

  if (op.granularity == RefreshGranularity::kSubarray) {
    Subarray& sa = subarrays_[sub];
    Cycles start = std::max(now, sa.busy_until);
    // Refresh requires the subarray precharged; close any open row first.
    if (sa.open_row.has_value()) {
      const Cycles pre_start = EarliestPrecharge(sa, start);
      Log(pre_start, CommandKind::kPrecharge, sub, *sa.open_row);
      start = pre_start + timing_.t_rp;
      sa.open_row.reset();
    }
    const Cycles completion = start + op.trfc;
    Log(start, CommandKind::kRefresh, sub, op.row, op.trfc, op.granularity);
    if (op.is_full) {
      ++stats_.full_refreshes;
    } else {
      ++stats_.partial_refreshes;
    }
    stats_.refresh_busy_cycles += op.trfc;
    sa.busy_until = completion;
    return completion;
  }

  // Bank-level refresh (REFpb / all-bank REF): wait for every subarray,
  // close every open row, then occupy the whole bank.
  Cycles start = now;
  for (const Subarray& sa : subarrays_) {
    start = std::max(start, sa.busy_until);
  }
  Cycles ref_start = start;
  for (std::size_t s = 0; s < subarrays_.size(); ++s) {
    Subarray& sa = subarrays_[s];
    if (!sa.open_row.has_value()) {
      continue;
    }
    const Cycles pre_start = EarliestPrecharge(sa, start);
    Log(pre_start, CommandKind::kPrecharge, s, *sa.open_row);
    ref_start = std::max(ref_start, pre_start + timing_.t_rp);
    sa.open_row.reset();
  }
  if (op.granularity == RefreshGranularity::kPerBank && engine_ != nullptr) {
    // REFpb participates in the rank's activation windows: floor it like
    // an ACTIVATE and record it so subsequent ACTs see it.
    ref_start = engine_->EarliestActivate(addr_, ref_start);
    engine_->RecordActivate(addr_, ref_start);
  }
  const Cycles completion = ref_start + op.trfc;
  Log(ref_start, CommandKind::kRefresh, sub, op.row, op.trfc,
      op.granularity);
  if (op.is_full) {
    ++stats_.full_refreshes;
  } else {
    ++stats_.partial_refreshes;
  }
  stats_.refresh_busy_cycles += op.trfc;
  for (Subarray& sa : subarrays_) {
    sa.busy_until = completion;
  }
  return completion;
}

}  // namespace vrl::dram
