#include "dram/controller.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::dram {

std::size_t SimulationStats::TotalReads() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.reads;
  }
  return n;
}

std::size_t SimulationStats::TotalWrites() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.writes;
  }
  return n;
}

std::size_t SimulationStats::TotalFullRefreshes() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.full_refreshes;
  }
  return n;
}

std::size_t SimulationStats::TotalPartialRefreshes() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.partial_refreshes;
  }
  return n;
}

Cycles SimulationStats::TotalRefreshBusyCycles() const {
  Cycles n = 0;
  for (const auto& b : per_bank) {
    n += b.refresh_busy_cycles;
  }
  return n;
}

std::size_t SimulationStats::TotalActivations() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.activations;
  }
  return n;
}

std::size_t SimulationStats::TotalRowHits() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.row_hits;
  }
  return n;
}

std::size_t SimulationStats::TotalRowMisses() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.row_misses;
  }
  return n;
}

double SimulationStats::RefreshOverheadPerBank() const {
  if (per_bank.empty()) {
    return 0.0;
  }
  return static_cast<double>(TotalRefreshBusyCycles()) /
         static_cast<double>(per_bank.size());
}

double SimulationStats::AverageRequestLatency() const {
  Cycles total = 0;
  std::size_t count = 0;
  for (const auto& b : per_bank) {
    total += b.total_request_latency;
    count += b.reads + b.writes;
  }
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

namespace {

/// The degenerate timing table of the flat constructor: today's model,
/// wrapped so both constructors share one body.
TimingTable FlatTable(const TimingParams& timing, std::size_t banks) {
  if (banks == 0) {
    throw ConfigError("MemoryController: need at least one bank");
  }
  TimingTable table;
  table.core = timing;
  table.topology = {1, 1, 1, banks};
  return table;
}

}  // namespace

MemoryController::MemoryController(std::size_t banks, std::size_t rows,
                                   const TimingParams& timing,
                                   const PolicyFactory& factory,
                                   SchedulerKind scheduler,
                                   RowBufferPolicy page_policy,
                                   std::size_t subarrays)
    : MemoryController(FlatTable(timing, banks), rows, factory, scheduler,
                       page_policy, subarrays) {}

MemoryController::MemoryController(const TimingTable& table, std::size_t rows,
                                   const PolicyFactory& factory,
                                   SchedulerKind scheduler,
                                   RowBufferPolicy page_policy,
                                   std::size_t subarrays)
    : table_(table), scheduler_(scheduler) {
  table_.Validate();
  const std::size_t banks = table_.topology.TotalBanks();
  banks_.reserve(banks);
  policies_.reserve(banks);
  for (std::size_t b = 0; b < banks; ++b) {
    banks_.emplace_back(rows, table_.core, page_policy, subarrays);
    auto policy = factory();
    if (!policy) {
      throw ConfigError("MemoryController: policy factory returned null");
    }
    if (policy->rows() != rows) {
      throw ConfigError("MemoryController: policy row count mismatch");
    }
    policies_.push_back(std::move(policy));
  }
  if (table_.IsHierarchical()) {
    engine_ = std::make_unique<ConstraintEngine>(table_);
    for (std::size_t b = 0; b < banks; ++b) {
      banks_[b].SetConstraintEngine(engine_.get(),
                                    DecomposeBank(table_.topology, b));
    }
  }
}

CommandLog& MemoryController::EnableAudit() {
  if (!audit_log_) {
    audit_log_ = std::make_unique<CommandLog>();
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      banks_[b].SetAudit(audit_log_.get(), b);
    }
  }
  return *audit_log_;
}

CommandLog MemoryController::TakeAuditLog() {
  if (!audit_log_) {
    return {};
  }
  return std::exchange(*audit_log_, CommandLog{});
}

void MemoryController::AttachTelemetry(telemetry::Recorder* recorder) {
  telemetry_ = recorder;
  for (const auto& policy : policies_) {
    policy->set_telemetry(recorder);
  }
}

SimulationStats MemoryController::Run(const std::vector<Request>& requests,
                                      Cycles horizon) {
  if (!std::is_sorted(requests.begin(), requests.end(),
                      [](const Request& a, const Request& b) {
                        return a.arrival < b.arrival;
                      })) {
    throw ConfigError("MemoryController::Run: requests must be arrival-sorted");
  }
  const Topology& topo = table_.topology;
  // The service loop is only tens of nanoseconds per request, so the
  // telemetry-gated per-request work is kept to this one accumulator;
  // everything else exported below is a delta of the banks' always-on
  // stats (docs/TELEMETRY.md).
  std::uint64_t reordered_picks_n = 0;
  RefreshGrantStats grant_stats;
  // Spans land on fresh track groups, one Chrome "process" per rank (a
  // flat run's single rank is just "run:<policy>") with one track per
  // bank; a null tracer costs one compare per refresh tick.
  telemetry::Tracer* tracer =
      telemetry_ == nullptr ? nullptr : telemetry_->tracer();
  std::vector<std::uint32_t> rank_groups;
  std::uint32_t burst_label = 0;
  std::uint32_t bank_label = 0;
  if (tracer != nullptr) {
    const std::string run_label = "run:" + policies_[0]->Name();
    if (engine_ == nullptr) {
      rank_groups.push_back(tracer->NewTrackGroup(run_label));
    } else {
      for (std::size_t c = 0; c < topo.channels; ++c) {
        for (std::size_t r = 0; r < topo.ranks_per_channel; ++r) {
          rank_groups.push_back(tracer->NewTrackGroup(
              run_label + "/ch" + std::to_string(c) + ".rk" +
              std::to_string(r)));
        }
      }
    }
    // Interned once: the per-tick burst spans skip the label lookup.
    burst_label = tracer->Intern("refresh_burst");
    bank_label = tracer->Intern("bank_run");
  }
  const std::size_t banks_per_rank = topo.BanksPerRank();
  // Phase profiling (--profile, docs/PROFILING.md): the per-tick phases
  // are timed on a 1-in-N sample (exact call counts, scaled time estimate)
  // and fold under "controller.run" at the end of the run.  Units:
  // requests serviced by the scheduler, refresh ops granted.
  telemetry::Profiler* profiler =
      telemetry_ == nullptr ? nullptr : telemetry_->profiler();
  const telemetry::ScopedPhase run_phase(profiler, "controller.run");
  telemetry::PhaseAccumulator scheduler_phase(profiler, "scheduler");
  telemetry::PhaseAccumulator grant_phase(profiler, "policy.propose_grant");
  telemetry::PhaseAccumulator flush_phase(profiler, "telemetry_flush",
                                          /*sample_every=*/1);
  // Run() absorbs only this run's deltas, so re-running a controller does
  // not double-count the cumulative BankStats or engine counters.
  SimulationStats before;
  if (telemetry_ != nullptr) {
    for (const Bank& bank : banks_) {
      before.per_bank.push_back(bank.stats());
    }
  }
  const ConstraintStats engine_before =
      engine_ == nullptr ? ConstraintStats{} : engine_->stats();
  const HierarchyActivity activity_before =
      engine_ == nullptr ? HierarchyActivity{} : engine_->activity();

  // Split requests per bank, preserving order.
  struct BankCursor {
    std::vector<Request> queue;    // this bank's requests, arrival order
    std::size_t qi = 0;            // next request not yet pending
    std::vector<Request> pending;  // arrived but not yet serviced
  };
  std::vector<BankCursor> cursors(banks_.size());
  for (const Request& r : requests) {
    if (r.bank >= banks_.size()) {
      throw ConfigError("MemoryController::Run: request bank out of range");
    }
    cursors[r.bank].queue.push_back(r);
  }
  // Refresh bursts are buffered per bank and emitted under that bank's
  // bank_run span once the group finishes, so every burst is a child of
  // its own bank's span even while a group's banks interleave.
  struct Burst {
    Cycles tick = 0;
    Cycles busy = 0;
    std::int64_t ops = 0;
    std::int64_t fulls = 0;
  };
  std::vector<std::vector<Burst>> bursts;

  // Banks run in groups, each group on one timeline interleaving its
  // request streams with the global tREFI ticks.  Without inter-bank
  // constraints every bank is its own group, so each decision below looks
  // at one bank; a hierarchical table puts all banks in one group so the
  // constraint engine sees commands in approximate issue order.
  const std::size_t group_size = engine_ == nullptr ? 1 : banks_.size();
  Cycles end = horizon;
  for (std::size_t first = 0; first < banks_.size(); first += group_size) {
    const std::size_t last = first + group_size;
    if (tracer != nullptr) {
      bursts.assign(group_size, {});
    }

    // One pass per refresh tick, then a final drain pass for requests
    // arriving up to the horizon after the last tick.  The passes are
    // written inline rather than as lambdas so the compiler keeps the
    // per-request state in registers (the flat run was ~7% slower with
    // the service step behind a lambda).
    for (Cycles tick = 0;; tick += table_.core.t_refi) {
      const bool drain = tick > horizon;
      const Cycles limit = drain ? horizon + 1 : tick;
      // Service every request arriving before `limit`, letting the
      // scheduler reorder among the ones pending at each decision instant.
      // Each step serves the group's bank whose decision instant comes
      // first (ties to the lowest index).
      scheduler_phase.Start();
      while (true) {
        std::size_t b = last;
        Cycles t_decide = 0;
        for (std::size_t i = first; i < last; ++i) {
          // Decision instant: when the bank frees up, or — with nothing
          // pending — when its next request arrives.
          const BankCursor& cur = cursors[i];
          Cycles t = banks_[i].busy_until();
          if (cur.pending.empty()) {
            if (cur.qi >= cur.queue.size() ||
                cur.queue[cur.qi].arrival >= limit) {
              continue;
            }
            t = std::max(t, cur.queue[cur.qi].arrival);
          }
          if (b == last || t < t_decide) {
            t_decide = t;
            b = i;
          }
        }
        if (b == last) {
          break;
        }
        Bank& bank = banks_[b];
        BankCursor& cur = cursors[b];
        // Everything arrived by then competes for the slot.
        while (cur.qi < cur.queue.size() &&
               cur.queue[cur.qi].arrival <= t_decide &&
               cur.queue[cur.qi].arrival < limit) {
          cur.pending.push_back(cur.queue[cur.qi]);
          ++cur.qi;
        }
        const std::size_t pick =
            SelectNextRequest(scheduler_, cur.pending, bank);
        bank.ServiceRequest(cur.pending[pick]);
        policies_[b]->OnRowAccess(cur.pending[pick].row);
        if (telemetry_ != nullptr) {
          // `pending` stays arrival-ordered, so any pick other than the
          // front is the scheduler reordering for row locality.
          reordered_picks_n += pick != 0 ? 1 : 0;
        }
        cur.pending.erase(cur.pending.begin() +
                          static_cast<std::ptrdiff_t>(pick));
      }
      scheduler_phase.Stop();
      if (drain) {
        break;
      }

      // Propose/grant per bank, then execute the tick's refresh operations
      // bank by bank (index order — deterministic).  The pass above
      // drained every bank's `pending`, so the queue cursor *is* the
      // demand view: the next request this bank will see.  The constraint
      // engine (null on flat tables) joins the context so non-urgent REFpb
      // proposals defer instead of stalling in the rank's ACT windows.
      for (std::size_t b = first; b < last; ++b) {
        RefreshGrantContext ctx;
        ctx.now = tick;
        ctx.demand.now = tick;
        const BankCursor& cur = cursors[b];
        if (cur.qi < cur.queue.size()) {
          ctx.demand.has_next = true;
          ctx.demand.next_arrival = cur.queue[cur.qi].arrival;
          ctx.demand.next_row = cur.queue[cur.qi].row;
        }
        ctx.bank = &banks_[b];
        ctx.engine = engine_.get();
        if (engine_ != nullptr) {
          ctx.addr = DecomposeBank(topo, b);
        }
        grant_phase.Start();
        const std::vector<RefreshOp> ops =
            GrantRefreshes(*policies_[b], ctx, &grant_stats);
        grant_phase.Stop();
        // Each op waits for its own subarray inside the bank; ops to
        // distinct subarrays overlap (SALP), ops to the same one
        // serialize.
        for (const RefreshOp& op : ops) {
          banks_[b].ExecuteRefresh(op, tick);
        }
        if (tracer != nullptr && !ops.empty()) {
          Burst burst{tick, 0, static_cast<std::int64_t>(ops.size()), 0};
          for (const RefreshOp& op : ops) {
            burst.busy += op.trfc;
            burst.fulls += op.is_full ? 1 : 0;
          }
          bursts[b - first].push_back(burst);
        }
      }
    }
    for (std::size_t b = first; b < last; ++b) {
      const Cycles bank_end =
          std::max(horizon, banks_[b].stats().last_completion);
      end = std::max(end, bank_end);
      if (tracer == nullptr) {
        continue;
      }
      const std::uint32_t group = rank_groups[b / banks_per_rank];
      const std::uint64_t track = b % banks_per_rank;
      const telemetry::SpanId bank_span =
          tracer->BeginSpan(bank_label, 0, group, track);
      for (const Burst& burst : bursts[b - first]) {
        // Duration aggregates the burst's tRFC cycles (subarray overlap
        // can retire it faster; the bank stats carry the exact busy time).
        tracer->CompleteSpan(burst_label, burst.tick, burst.tick + burst.busy,
                             group, track, burst.ops, burst.fulls);
      }
      tracer->EndSpan(bank_span, bank_end);
    }
  }

  // Fold the policies' batched per-op telemetry into the recorder before
  // any caller snapshots it.
  flush_phase.Start();
  for (const auto& policy : policies_) {
    policy->FlushTelemetry();
  }

  SimulationStats stats;
  stats.simulated_cycles = end;
  stats.per_bank.reserve(banks_.size());
  for (const Bank& bank : banks_) {
    stats.per_bank.push_back(bank.stats());
  }

  ExportRunTelemetry(before, stats, reordered_picks_n, end);
  ExportGrantTelemetry(grant_stats);
  if (telemetry_ != nullptr && engine_ != nullptr) {
    // Hierarchy-only export: the constraint engine's stall accounting and
    // per-rank/channel activity.  Never registered on flat tables, so flat
    // reports stay byte-identical.
    const ConstraintStats& cs = engine_->stats();
    const auto delta = [&](std::string_view name, std::uint64_t now,
                           std::uint64_t then) {
      telemetry_->counter(name).Add(now - then);
    };
    delta("dram.hier.trrd_stalls", cs.trrd_stalls, engine_before.trrd_stalls);
    delta("dram.hier.trrd_stall_cycles", cs.trrd_stall_cycles,
          engine_before.trrd_stall_cycles);
    delta("dram.hier.tfaw_stalls", cs.tfaw_stalls, engine_before.tfaw_stalls);
    delta("dram.hier.tfaw_stall_cycles", cs.tfaw_stall_cycles,
          engine_before.tfaw_stall_cycles);
    delta("dram.hier.tccd_stalls", cs.tccd_stalls, engine_before.tccd_stalls);
    delta("dram.hier.tccd_stall_cycles", cs.tccd_stall_cycles,
          engine_before.tccd_stall_cycles);
    delta("dram.hier.trtrs_stalls", cs.trtrs_stalls,
          engine_before.trtrs_stalls);
    delta("dram.hier.trtrs_stall_cycles", cs.trtrs_stall_cycles,
          engine_before.trtrs_stall_cycles);
    delta("dram.hier.bus_stalls", cs.bus_stalls, engine_before.bus_stalls);
    delta("dram.hier.bus_stall_cycles", cs.bus_stall_cycles,
          engine_before.bus_stall_cycles);
    const HierarchyActivity& act = engine_->activity();
    for (std::size_t g = 0; g < act.rank_activations.size(); ++g) {
      const std::string suffix =
          ".ch" + std::to_string(g / topo.ranks_per_channel) + ".rk" +
          std::to_string(g % topo.ranks_per_channel);
      delta("dram.hier.rank_activations" + suffix, act.rank_activations[g],
            activity_before.rank_activations[g]);
      delta("dram.hier.rank_columns" + suffix, act.rank_columns[g],
            activity_before.rank_columns[g]);
    }
    for (std::size_t c = 0; c < act.channel_bursts.size(); ++c) {
      delta("dram.hier.channel_bursts.ch" + std::to_string(c),
            act.channel_bursts[c], activity_before.channel_bursts[c]);
    }
  }
  // The flush phase covers the policy folds plus the delta exports above.
  flush_phase.Stop();
  scheduler_phase.Fold(stats.TotalReads() + stats.TotalWrites() -
                       before.TotalReads() - before.TotalWrites());
  grant_phase.Fold(grant_stats.granted);
  flush_phase.Fold();
  return stats;
}

void MemoryController::ExportGrantTelemetry(const RefreshGrantStats& grants) {
  // Registered only when a scheduler-coupled policy actually produced
  // non-urgent proposals: the fixed-schedule policies (defer window 0, so
  // every proposal is urgent) leave the snapshot untouched.
  if (telemetry_ == nullptr || grants.nonurgent_proposals == 0) {
    return;
  }
  telemetry_->counter("dram.refresh.proposals").Add(grants.proposals);
  telemetry_->counter("dram.refresh.nonurgent_proposals")
      .Add(grants.nonurgent_proposals);
  telemetry_->counter("dram.refresh.granted").Add(grants.granted);
  telemetry_->counter("dram.refresh.deferred").Add(grants.deferred);
  telemetry_->counter("dram.refresh.urgent_grants")
      .Add(grants.urgent_grants);
}

void MemoryController::ExportRunTelemetry(const SimulationStats& before,
                                          const SimulationStats& stats,
                                          std::uint64_t reordered_picks_n,
                                          Cycles end) {
  if (telemetry_ == nullptr) {
    return;
  }
  // Everything below is a delta of the banks' always-on stats, so a
  // repeated Run() of the same controller exports only its own work.
  std::vector<std::uint64_t> latency_counts(telemetry::kLatencyBucketCount,
                                            0);
  Cycles latency_total = 0;
  std::uint64_t picks_n = 0;
  for (std::size_t b = 0; b < stats.per_bank.size(); ++b) {
    const BankStats& now = stats.per_bank[b];
    const BankStats& then = before.per_bank[b];
    for (std::size_t i = 0; i < latency_counts.size(); ++i) {
      latency_counts[i] += now.latency_hist[i] - then.latency_hist[i];
    }
    latency_total += now.total_request_latency - then.total_request_latency;
    picks_n += (now.reads + now.writes) - (then.reads + then.writes);
  }
  telemetry_->counter("scheduler.picks").Add(picks_n);
  telemetry_->counter("scheduler.reordered_picks").Add(reordered_picks_n);
  telemetry_
      ->histogram("dram.request_latency_cycles",
                  telemetry::LatencyBucketEdges())
      .MergeCounts(latency_counts, static_cast<double>(latency_total));
  const auto add = [&](std::string_view name, std::size_t now_total,
                       std::size_t before_total) {
    telemetry_->counter(name).Add(
        static_cast<std::uint64_t>(now_total - before_total));
  };
  add("dram.reads", stats.TotalReads(), before.TotalReads());
  add("dram.writes", stats.TotalWrites(), before.TotalWrites());
  add("dram.row_hits", stats.TotalRowHits(), before.TotalRowHits());
  add("dram.row_misses", stats.TotalRowMisses(), before.TotalRowMisses());
  add("dram.activations", stats.TotalActivations(),
      before.TotalActivations());
  add("dram.full_refreshes", stats.TotalFullRefreshes(),
      before.TotalFullRefreshes());
  add("dram.partial_refreshes", stats.TotalPartialRefreshes(),
      before.TotalPartialRefreshes());
  telemetry_->counter("dram.refresh_busy_cycles")
      .Add(stats.TotalRefreshBusyCycles() - before.TotalRefreshBusyCycles());
  telemetry_->counter("dram.simulated_cycles").Add(end);
}

}  // namespace vrl::dram
