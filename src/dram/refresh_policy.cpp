#include "dram/refresh_policy.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::dram {

std::string RefreshGranularityName(RefreshGranularity granularity) {
  switch (granularity) {
    case RefreshGranularity::kSubarray:
      return "subarray";
    case RefreshGranularity::kPerBank:
      return "per-bank";
    case RefreshGranularity::kAllBank:
      return "all-bank";
  }
  return "?";
}

void RefreshPolicy::set_telemetry(telemetry::Recorder* recorder) {
  FlushTelemetry();  // Batched state belongs to the previous recorder.
  telemetry_ = recorder;
  if (recorder == nullptr) {
    full_ops_ = nullptr;
    partial_ops_ = nullptr;
    busy_cycles_ = nullptr;
    mprsf_resets_ = nullptr;
    slack_ = nullptr;
    lineage_ = nullptr;
    cause_label_ = 0;
    lineage_ops_ = false;
  } else {
    full_ops_ = &recorder->counter("policy.full_refreshes");
    partial_ops_ = &recorder->counter("policy.partial_refreshes");
    busy_cycles_ = &recorder->counter("policy.refresh_busy_cycles");
    mprsf_resets_ = &recorder->counter("policy.mprsf_resets");
    slack_ = &recorder->histogram("policy.refresh_slack_cycles",
                                  telemetry::SlackBucketEdges());
    pending_slack_.assign(telemetry::SlackBucketEdges().size() + 1, 0);
    // The lineage cause is this policy's name, interned once so the hot
    // path records a fixed index.
    lineage_ = &recorder->lineage();
    cause_label_ = lineage_->Intern(Name());
    lineage_ops_ = recorder->options().lineage_ops;
  }
  OnTelemetryAttached();
}

void RefreshPolicy::FlushTelemetry() {
  if (telemetry_ == nullptr) {
    return;
  }
  full_ops_->Add(pending_full_);
  partial_ops_->Add(pending_partial_);
  busy_cycles_->Add(pending_busy_);
  mprsf_resets_->Add(pending_mprsf_resets_);
  slack_->MergeCounts(pending_slack_,
                      static_cast<double>(pending_slack_sum_));
  pending_full_ = 0;
  pending_partial_ = 0;
  pending_busy_ = 0;
  pending_mprsf_resets_ = 0;
  pending_slack_sum_ = 0;
  std::fill(pending_slack_.begin(), pending_slack_.end(), 0);
}

void RefreshPolicy::RecordOpSlow(const RefreshOp& op, Cycles now,
                                 Cycles due) {
  const Cycles slack = now - due;
  // Branchless: the full/partial mix is data-dependent, so a branch here
  // mispredicts on VRL's interleaved schedules.
  pending_full_ += op.is_full ? 1 : 0;
  pending_partial_ += op.is_full ? 0 : 1;
  pending_busy_ += op.trfc;
  ++pending_slack_[telemetry::SlackBucketIndex(slack)];
  pending_slack_sum_ += slack;
  // Per-op refresh lineage is the firehose; the default transitions-only
  // recording (RecorderOptions::lineage_ops == false) skips it.
  if (lineage_ops_) {
    lineage_->Add({op.is_full ? telemetry::EventKind::kFullRefresh
                              : telemetry::EventKind::kPartialRefresh,
                   now, static_cast<std::uint64_t>(op.row), cause_label_,
                   static_cast<std::int64_t>(slack), 0.0});
  }
}

void RefreshPolicy::RecordMprsfResetSlow(std::size_t row,
                                         std::uint8_t old_count) {
  // The controller's activation fully restored the row, resetting its
  // partial-refresh counter (the paper's VRL-Access transition).  Under
  // VRL-Access that happens on nearly every row activation, so the ring
  // write rides the lineage_ops gate (RecordMprsfReset checks it); the
  // pending_mprsf_resets_ count is always exact.
  lineage_->Add({telemetry::EventKind::kMprsfReset, last_now_,
                 static_cast<std::uint64_t>(row), cause_label_,
                 static_cast<std::int64_t>(old_count), 0.0});
}

void RefreshPolicy::ThrowNonMonotonicNow(Cycles now) const {
  throw ConfigError("RefreshPolicy::Propose: now must be non-decreasing"
                    " (got " +
                    std::to_string(now) + " after " +
                    std::to_string(last_now_) + ")");
}

RowRefreshPlan MakeRefreshPlan(const retention::BinningResult& binning,
                               double clock_period_s,
                               const std::vector<std::size_t>& mprsf) {
  if (clock_period_s <= 0.0) {
    throw ConfigError("MakeRefreshPlan: clock period must be positive");
  }
  const std::size_t rows = binning.row_bin.size();
  if (!mprsf.empty() && mprsf.size() != rows) {
    throw ConfigError("MakeRefreshPlan: mprsf size does not match rows");
  }
  RowRefreshPlan plan;
  plan.period_cycles.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    plan.period_cycles[r] =
        SecondsToCyclesCeil(binning.RowPeriod(r), clock_period_s);
  }
  if (!mprsf.empty()) {
    plan.mprsf.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      if (mprsf[r] > 255) {
        throw ConfigError("MakeRefreshPlan: mprsf exceeds counter range");
      }
      plan.mprsf[r] = static_cast<std::uint8_t>(mprsf[r]);
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// DueQueue
// ---------------------------------------------------------------------------

DueQueue::DueQueue(const std::vector<Cycles>& periods)
    : lane_of_(periods.size(), kHeap) {
  // One FIFO per distinct period, in order of first appearance, until
  // kMaxLanes; rows of any further period live in the fallback heap.
  std::vector<Cycles> lane_period;
  std::vector<std::size_t> lane_rows;
  // A row with its predecessor's period takes its lane without a search:
  // every row of a one-period plan (JEDEC, DARP, SARP) after the first.
  for (std::size_t r = 0; r < periods.size(); ++r) {
    if (r != 0 && periods[r] == periods[r - 1]) {
      lane_of_[r] = lane_of_[r - 1];
    } else {
      auto it = std::find(lane_period.begin(), lane_period.end(), periods[r]);
      if (it == lane_period.end()) {
        if (lane_period.size() == kMaxLanes) {
          continue;
        }
        lane_period.push_back(periods[r]);
        lane_rows.push_back(0);
        it = lane_period.end() - 1;
      }
      lane_of_[r] = static_cast<std::uint8_t>(it - lane_period.begin());
    }
    if (lane_of_[r] != kHeap) {
      ++lane_rows[lane_of_[r]];
    }
  }
  // A row sits in the queue at most once while its policy runs, so a FIFO
  // sized to its rows never grows.
  lanes_.resize(lane_period.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const std::size_t capacity = std::bit_ceil(lane_rows[l]);
    lanes_[l].ring.reserve(capacity);
    lanes_[l].mask = capacity - 1;
  }
}

void DueQueue::Lane::PushBack(const Entry& entry) {
  if (count == mask + 1) {
    std::vector<Entry> grown;
    grown.reserve(2 * count);
    for (std::size_t i = 0; i < count; ++i) {
      grown.push_back(ring[(head + i) & mask]);
    }
    ring = std::move(grown);
    mask = 2 * count - 1;
    head = 0;
  }
  Put((head + count) & mask, entry);
  ++count;
}

void DueQueue::push(Cycles due, std::size_t row) {
  const Entry entry{due, row};
  const bool new_min = size_ == 0 || entry < top();
  std::uint8_t where = row < lane_of_.size() ? lane_of_[row] : kHeap;
  if (where != kHeap) {
    Lane& lane = lanes_[where];
    if (lane.count == 0 || !(entry < lane.back())) {
      lane.PushBack(entry);
    } else {
      where = kHeap;  // Out of order for its FIFO.
    }
  }
  if (where == kHeap) {
    heap_.push(entry);
  }
  ++size_;
  // A new least entry is the head of whatever took it: a FIFO holding
  // anything else would hold something smaller.
  if (new_min) {
    min_lane_ = where;
  }
}

void DueQueue::BeginFill() {
  if (size_ != 0) {
    throw ConfigError("DueQueue::Fill: the queue must be empty");
  }
  for (Lane& lane : lanes_) {
    lane.head = 0;
  }
}

void DueQueue::pop() {
  if (min_lane_ == kHeap) {
    heap_.pop();
  } else {
    lanes_[min_lane_].PopFront();
  }
  --size_;
  FindMin();
}

void DueQueue::FindMin() {
  const Entry* best = heap_.empty() ? nullptr : &heap_.top();
  min_lane_ = kHeap;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = lanes_[l];
    if (lane.count != 0 && (best == nullptr || lane.front() < *best)) {
      best = &lane.front();
      min_lane_ = static_cast<std::uint8_t>(l);
    }
  }
}

// ---------------------------------------------------------------------------
// ProposingPolicy
// ---------------------------------------------------------------------------

ProposingPolicy::ProposingPolicy(std::vector<Cycles> periods,
                                 Cycles defer_window)
    : periods_(std::move(periods)),
      defer_window_(defer_window),
      due_(periods_) {
  if (periods_.empty()) {
    throw ConfigError("ProposingPolicy: need at least one row");
  }
  // Stagger the initial deadlines across the first period so refreshes
  // spread over tREFI ticks instead of bursting at t = 0 (this mirrors how
  // a controller walks rows round-robin within a refresh window): row r's
  // first deadline lands at (r/n)-th of its own period.
  const auto n = static_cast<Cycles>(periods_.size());
  due_.Fill([&](std::size_t r) {
    return periods_[r] * static_cast<Cycles>(r) / n;
  });
  UpdateNextProposal();
}

void ProposingPolicy::Propose(Cycles now, const DemandView& demand,
                              std::vector<RefreshProposal>& out) {
  (void)demand;
  RequireMonotonicNow(now);
  // Rows coming due turn into outstanding proposals; the op (full/partial,
  // latency) is frozen here.  AtCap bounds the outstanding set: excess rows
  // stay in the queue and come due first on the next tick.
  while (!due_.empty() && due_.top().first <= now &&
         !AtCap(outstanding_.size())) {
    const auto [when, row] = due_.top();
    due_.pop();
    const Cycles resched = SkipUntil(row, when);
    if (resched > when) {
      due_.push(resched, row);
      continue;
    }
    RefreshProposal proposal;
    proposal.op = MakeOp(row);
    proposal.due = when;
    proposal.deadline = when + defer_window_;
    outstanding_.push_back(proposal);
  }
  out.assign(outstanding_.begin(), outstanding_.end());
  UpdateNextProposal();
}

void ProposingPolicy::OnGrant(const RefreshProposal& proposal, Cycles at) {
  const std::size_t row = proposal.op.row;
  for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
    if (it->op.row == row) {
      outstanding_.erase(it);
      break;
    }
  }
  RecordOp(proposal.op, at, proposal.due);
  // Re-arm anchored at the due cycle, not the grant cycle: deferral must
  // not stretch the retention schedule.
  due_.push(proposal.due + periods_[row], row);
  UpdateNextProposal();
}

bool ProposingPolicy::RearmOutstanding(std::size_t row, Cycles at) {
  for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
    if (it->op.row == row) {
      outstanding_.erase(it);
      due_.push(at, row);
      UpdateNextProposal();
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// FullLatencyPolicy
// ---------------------------------------------------------------------------

FullLatencyPolicy::FullLatencyPolicy(std::string name,
                                     std::vector<Cycles> periods,
                                     Cycles trfc_full,
                                     RefreshGranularity granularity,
                                     Cycles defer_window)
    : ProposingPolicy(std::move(periods), defer_window),
      name_(std::move(name)),
      trfc_full_(trfc_full),
      granularity_(granularity) {
  bool zero = trfc_full_ == 0;
  for (std::size_t r = 0; r < rows() && !zero; ++r) {
    zero = PeriodOf(r) == 0;
  }
  if (zero) {
    throw ConfigError("FullLatencyPolicy: periods and tRFC must be non-zero");
  }
}

// ---------------------------------------------------------------------------
// VrlPolicy (Algorithm 1) / VrlAccessPolicy
// ---------------------------------------------------------------------------

VrlPolicy::VrlPolicy(RowRefreshPlan plan, Cycles trfc_full,
                     Cycles trfc_partial, Cycles defer_window)
    : ProposingPolicy(std::move(plan.period_cycles), defer_window),
      mprsf_(std::move(plan.mprsf)),
      trfc_full_(trfc_full),
      trfc_partial_(trfc_partial) {
  if (mprsf_.size() != rows()) {
    throw ConfigError("VrlPolicy: plan must carry one MPRSF per row");
  }
  if (trfc_partial_ == 0 || trfc_partial_ >= trfc_full_) {
    throw ConfigError("VrlPolicy: need 0 < tau_partial < tau_full");
  }
  // Stagger the initial counter phases across rows so a finite simulation
  // window samples the steady-state full/partial mix instead of the
  // all-partial transient right after power-up (every row starts fully
  // charged, so early partials are safe regardless of phase).
  rcount_.resize(rows());
  for (std::size_t r = 0; r < rcount_.size(); ++r) {
    rcount_[r] = static_cast<std::uint8_t>(
        r % (static_cast<std::size_t>(mprsf_[r]) + 1));
  }
}

RefreshOp VrlPolicy::MakeOp(std::size_t row) {
  const bool full = rcount_[row] == mprsf_[row];
  return {row, full ? trfc_full_ : trfc_partial_, full};
}

void VrlPolicy::OnGrant(const RefreshProposal& proposal, Cycles at) {
  // Walk the ladder at grant time.  The op was frozen at propose time and
  // nothing moves the counter in between: with a defer window of 0 the
  // grant lands on the proposing tick, and a VRL-Skip access that resets
  // the counter also cancels the row's outstanding proposal.
  const std::size_t row = proposal.op.row;
  if (proposal.op.is_full) {
    rcount_[row] = 0;
  } else {
    ++rcount_[row];
  }
  ProposingPolicy::OnGrant(proposal, at);
}

void VrlAccessPolicy::OnRowAccess(std::size_t row) {
  if (row >= rcount_.size()) {
    throw ConfigError("VrlAccessPolicy: access to unknown row");
  }
  // A row activation fully restores the charge of the row, so the next
  // refreshes may again be partial: reset the counter (§3.2).
  RecordMprsfReset(row, rcount_[row]);
  rcount_[row] = 0;
}

// ---------------------------------------------------------------------------
// VrlSkipPolicy
// ---------------------------------------------------------------------------

VrlSkipPolicy::VrlSkipPolicy(RowRefreshPlan plan, Cycles trfc_full,
                             Cycles trfc_partial, Cycles defer_window)
    : VrlAccessPolicy(std::move(plan), trfc_full, trfc_partial,
                      defer_window) {
  last_restore_.assign(rows(), kNeverRestored);
}

void VrlSkipPolicy::CountSkip() {
  ++skipped_;
  if (skipped_cell_ != nullptr) {
    skipped_cell_->Add(1);
  }
}

Cycles VrlSkipPolicy::SkipUntil(std::size_t row, Cycles due) {
  if (last_restore_[row] == kNeverRestored) {
    return 0;  // The staggered initial schedule stays authoritative.
  }
  const Cycles safe = last_restore_[row] + PeriodOf(row);
  if (safe > due) {
    CountSkip();
    return safe;
  }
  return 0;
}

void VrlSkipPolicy::OnGrant(const RefreshProposal& proposal, Cycles at) {
  // Any refresh restores at least one period of charge from its execution
  // cycle, so a deferred grant pushes the row's next safe point out too.
  last_restore_[proposal.op.row] = at;
  VrlAccessPolicy::OnGrant(proposal, at);
}

void VrlSkipPolicy::OnRowAccess(std::size_t row) {
  VrlAccessPolicy::OnRowAccess(row);
  // OnRowAccess arrives without its own clock; last_now() (the most recent
  // tick) is earlier than the true access cycle, so the restore point is
  // conservative.
  last_restore_[row] = last_now();
  if (RearmOutstanding(row, last_restore_[row] + PeriodOf(row))) {
    // The access restored a row that was already proposed: the pending
    // refresh is no longer needed at all.
    CountSkip();
  }
}

void VrlSkipPolicy::OnTelemetryAttached() {
  skipped_cell_ = telemetry() == nullptr
                      ? nullptr
                      : &telemetry()->counter("policy.skipped_refreshes");
}

}  // namespace vrl::dram
