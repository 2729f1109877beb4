#include "dram/policy_registry.hpp"

#include <cctype>
#include <utility>

#include "common/error.hpp"

namespace vrl::dram {

std::string CanonicalPolicyToken(std::string_view name) {
  std::string canon;
  canon.reserve(name.size());
  for (const char c : name) {
    if (c == '-' || c == '_') {
      continue;
    }
    canon.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return canon;
}

namespace {

void Require(bool ok, std::string_view policy, const char* what) {
  if (!ok) {
    throw ConfigError("PolicyRegistry: building " + std::string(policy) +
                      " requires " + what);
  }
}

/// A full-latency baseline's registry entry: FullLatencyPolicy on every
/// row each base window (RowPlanKind::kNone) or on the binned periods
/// (kBinned), at one refresh scope, never deferred or deferred within
/// DeferWindowOrDefault().
PolicyInfo FullLatencyEntry(std::string name, std::string description,
                            RowPlanKind plan, RefreshGranularity granularity,
                            bool deferrable) {
  auto make = [name, plan, granularity, deferrable](
                  const PolicyBuildContext& ctx)
      -> std::unique_ptr<RefreshPolicy> {
    if (plan == RowPlanKind::kBinned) {
      Require(!ctx.binned_plan.period_cycles.empty(), name, "binned_plan");
    } else {
      Require(ctx.rows != 0, name, "rows");
      Require(ctx.base_window != 0, name, "base_window");
    }
    Require(ctx.trfc_full != 0, name, "trfc_full");
    if (deferrable) {
      Require(ctx.DeferWindowOrDefault() != 0, name,
              "defer_window or t_refi");
    }
    return std::make_unique<FullLatencyPolicy>(
        name,
        plan == RowPlanKind::kBinned
            ? ctx.binned_plan.period_cycles
            : std::vector<Cycles>(ctx.rows, ctx.base_window),
        ctx.trfc_full, granularity,
        deferrable ? ctx.DeferWindowOrDefault() : 0);
  };
  return {std::move(name), std::move(description), plan, std::move(make)};
}

}  // namespace

PolicyRegistry::PolicyRegistry() {
  entries_.push_back(FullLatencyEntry(
      "JEDEC",
      "conventional baseline: every row each base window, full latency",
      RowPlanKind::kNone, RefreshGranularity::kSubarray, false));
  entries_.push_back(FullLatencyEntry(
      "RAIDR", "retention-binned multi-rate refresh (Liu et al., ISCA 2012)",
      RowPlanKind::kBinned, RefreshGranularity::kSubarray, false));
  entries_.push_back(
      {"VRL",
       "variable refresh latency: MPRSF-counted partial/full ladder (Alg. 1)",
       RowPlanKind::kMprsf,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(!ctx.vrl_plan.period_cycles.empty(), "VRL", "vrl_plan");
         Require(ctx.trfc_full != 0, "VRL", "trfc_full");
         Require(ctx.trfc_partial != 0, "VRL", "trfc_partial");
         return std::make_unique<VrlPolicy>(ctx.vrl_plan, ctx.trfc_full,
                                            ctx.trfc_partial);
       }});
  entries_.push_back(
      {"VRL-Access",
       "VRL with activation-driven counter resets (paper Sec. 3.2)",
       RowPlanKind::kMprsf,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(!ctx.vrl_plan.period_cycles.empty(), "VRL-Access",
                 "vrl_plan");
         Require(ctx.trfc_full != 0, "VRL-Access", "trfc_full");
         Require(ctx.trfc_partial != 0, "VRL-Access", "trfc_partial");
         return std::make_unique<VrlAccessPolicy>(ctx.vrl_plan, ctx.trfc_full,
                                                  ctx.trfc_partial);
       }});
  entries_.push_back(
      {"VRL-Skip",
       "charge-aware VRL: recently restored rows skip, live proposals defer",
       RowPlanKind::kMprsf,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(!ctx.vrl_plan.period_cycles.empty(), "VRL-Skip", "vrl_plan");
         Require(ctx.trfc_full != 0, "VRL-Skip", "trfc_full");
         Require(ctx.trfc_partial != 0, "VRL-Skip", "trfc_partial");
         Require(ctx.DeferWindowOrDefault() != 0, "VRL-Skip",
                 "defer_window or t_refi");
         return std::make_unique<VrlSkipPolicy>(ctx.vrl_plan, ctx.trfc_full,
                                                ctx.trfc_partial,
                                                ctx.DeferWindowOrDefault());
       }});
  entries_.push_back(FullLatencyEntry(
      "DARP",
      "deferrable out-of-order per-bank REFpb around demand (1712.07754)",
      RowPlanKind::kNone, RefreshGranularity::kPerBank, true));
  entries_.push_back(FullLatencyEntry(
      "SARP", "subarray-parallel refresh: only same-subarray demand defers it",
      RowPlanKind::kNone, RefreshGranularity::kSubarray, true));
}

const PolicyRegistry& PolicyRegistry::Global() {
  static const PolicyRegistry registry;
  return registry;
}

const PolicyInfo* PolicyRegistry::Find(std::string_view name) const {
  const std::string canon = CanonicalPolicyToken(name);
  for (const PolicyInfo& entry : entries_) {
    if (CanonicalPolicyToken(entry.name) == canon) {
      return &entry;
    }
  }
  return nullptr;
}

const PolicyInfo& PolicyRegistry::Get(std::string_view name) const {
  const PolicyInfo* entry = Find(name);
  if (entry == nullptr) {
    throw ConfigError("PolicyRegistry: unknown policy '" + std::string(name) +
                      "' (expected one of: " + NameList() + ")");
  }
  return *entry;
}

std::unique_ptr<RefreshPolicy> PolicyRegistry::Build(
    std::string_view name, const PolicyBuildContext& ctx) const {
  return Get(name).make(ctx);
}

std::string PolicyRegistry::NameList() const {
  std::string out;
  for (const PolicyInfo& entry : entries_) {
    if (!out.empty()) {
      out += ", ";
    }
    out += entry.name;
  }
  return out;
}

const std::vector<SchedulerInfo>& SchedulerEntries() {
  static const std::vector<SchedulerInfo> entries = {
      {"FCFS", "strict arrival order", SchedulerKind::kFcfs},
      {"FR-FCFS", "first-ready: open-row hits first, then oldest",
       SchedulerKind::kFrFcfs},
  };
  return entries;
}

}  // namespace vrl::dram
