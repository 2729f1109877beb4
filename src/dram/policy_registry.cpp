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

void Require(bool ok, const char* policy, const char* what) {
  if (!ok) {
    throw ConfigError(std::string("PolicyRegistry: building ") + policy +
                      " requires " + what);
  }
}

}  // namespace

PolicyRegistry::PolicyRegistry() {
  entries_.push_back(
      {"JEDEC",
       "conventional baseline: every row each base window, full latency",
       RowPlanKind::kNone,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(ctx.rows != 0, "JEDEC", "rows");
         Require(ctx.base_window != 0, "JEDEC", "base_window");
         Require(ctx.trfc_full != 0, "JEDEC", "trfc_full");
         return std::make_unique<JedecPolicy>(ctx.rows, ctx.base_window,
                                              ctx.trfc_full);
       }});
  entries_.push_back(
      {"RAIDR",
       "retention-binned multi-rate refresh (Liu et al., ISCA 2012)",
       RowPlanKind::kBinned,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(!ctx.binned_plan.period_cycles.empty(), "RAIDR",
                 "binned_plan");
         Require(ctx.trfc_full != 0, "RAIDR", "trfc_full");
         return std::make_unique<RaidrPolicy>(ctx.binned_plan, ctx.trfc_full);
       }});
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
  entries_.push_back(
      {"DARP",
       "deferrable out-of-order per-bank REFpb around demand (1712.07754)",
       RowPlanKind::kNone,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(ctx.rows != 0, "DARP", "rows");
         Require(ctx.base_window != 0, "DARP", "base_window");
         Require(ctx.trfc_full != 0, "DARP", "trfc_full");
         Require(ctx.DeferWindowOrDefault() != 0, "DARP",
                 "defer_window or t_refi");
         return std::make_unique<DarpPolicy>(ctx.rows, ctx.base_window,
                                             ctx.trfc_full,
                                             ctx.DeferWindowOrDefault());
       }});
  entries_.push_back(
      {"SARP",
       "subarray-parallel refresh: only same-subarray demand defers it",
       RowPlanKind::kNone,
       [](const PolicyBuildContext& ctx) -> std::unique_ptr<RefreshPolicy> {
         Require(ctx.rows != 0, "SARP", "rows");
         Require(ctx.base_window != 0, "SARP", "base_window");
         Require(ctx.trfc_full != 0, "SARP", "trfc_full");
         Require(ctx.DeferWindowOrDefault() != 0, "SARP",
                 "defer_window or t_refi");
         return std::make_unique<SarpPolicy>(ctx.rows, ctx.base_window,
                                             ctx.trfc_full,
                                             ctx.DeferWindowOrDefault());
       }});
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
