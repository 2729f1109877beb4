#include "telemetry/profile_export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "telemetry/export.hpp"

namespace vrl::telemetry {
namespace {

bool TimesScrubbed(const ProfileSnapshot& snapshot) {
  for (const ProfileNode& node : snapshot.nodes) {
    if (node.inclusive_s != 0.0 || node.exclusive_s != 0.0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void WriteProfileText(std::ostream& os, const ProfileSnapshot& snapshot) {
  const double total = snapshot.RootInclusiveSeconds();
  os << "phase profile (" << snapshot.frames << " frames, "
     << snapshot.drops << " dropped)\n";
  char row[160];
  std::snprintf(row, sizeof row, "  %-44s %12s %12s %12s %12s %7s\n",
                "phase", "calls", "units", "incl_ms", "excl_ms", "excl%");
  os << row;
  for (const std::size_t index : snapshot.PreOrder()) {
    const ProfileNode& node = snapshot.nodes[index];
    const std::string label =
        std::string(static_cast<std::size_t>(node.depth) * 2, ' ') +
        node.name;
    const double share =
        total > 0.0 ? 100.0 * node.exclusive_s / total : 0.0;
    std::snprintf(row, sizeof row,
                  "  %-44s %12llu %12llu %12.3f %12.3f %6.1f%%\n",
                  label.c_str(),
                  static_cast<unsigned long long>(node.calls),
                  static_cast<unsigned long long>(node.units),
                  node.inclusive_s * 1e3, node.exclusive_s * 1e3, share);
    os << row;
  }
}

void WriteProfileJson(std::ostream& os, const ProfileSnapshot& snapshot) {
  os << "{\"schema\":\"vrl.profile.v1\",\"frames\":" << snapshot.frames
     << ",\"drops\":" << snapshot.drops << ",\"nodes\":[";
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const ProfileNode& node = snapshot.nodes[i];
    if (i != 0) {
      os << ',';
    }
    os << "{\"id\":" << i << ",\"parent\":" << node.parent << ",\"name\":\""
       << JsonEscape(node.name) << "\",\"path\":\""
       << JsonEscape(snapshot.PathOf(i)) << "\",\"depth\":" << node.depth
       << ",\"calls\":" << node.calls << ",\"units\":" << node.units
       << ",\"inclusive_s\":" << FormatDouble(node.inclusive_s)
       << ",\"exclusive_s\":" << FormatDouble(node.exclusive_s) << '}';
  }
  os << "]}\n";
}

void WriteCollapsedStacks(std::ostream& os,
                          const ProfileSnapshot& snapshot) {
  const bool scrubbed = TimesScrubbed(snapshot);
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const ProfileNode& node = snapshot.nodes[i];
    const long long weight =
        scrubbed ? static_cast<long long>(node.calls)
                 : std::llround(node.exclusive_s * 1e6);
    if (weight <= 0) {
      continue;
    }
    os << snapshot.PathOf(i) << ' ' << weight << '\n';
  }
}

void WriteProfileChromeTrace(std::ostream& os,
                             const ProfileSnapshot& snapshot) {
  // Children pack left to right from their parent's start; each node's
  // start is its parent's start plus the inclusive time of earlier
  // siblings, which keeps every child inside its parent's extent
  // whenever the tree's times are self-consistent.
  std::vector<double> starts(snapshot.nodes.size(), 0.0);
  std::vector<double> cursor(snapshot.nodes.size(), 0.0);
  double root_cursor = 0.0;
  os << "{\"traceEvents\":[\n";
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
     << R"("args":{"name":"profile"}})";
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const ProfileNode& node = snapshot.nodes[i];
    double start = 0.0;
    if (node.parent < 0) {
      start = root_cursor;
      root_cursor += node.inclusive_s;
    } else {
      const auto parent = static_cast<std::size_t>(node.parent);
      start = starts[parent] + cursor[parent];
      cursor[parent] += node.inclusive_s;
    }
    starts[i] = start;
    os << ",\n{\"name\":\"" << JsonEscape(node.name)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << node.depth
       << ",\"ts\":" << FormatDouble(start * 1e6)
       << ",\"dur\":" << FormatDouble(node.inclusive_s * 1e6)
       << ",\"args\":{\"calls\":" << node.calls
       << ",\"units\":" << node.units << ",\"exclusive_s\":"
       << FormatDouble(node.exclusive_s) << "}}";
  }
  os << "\n]}\n";
}

ProfileWriter ProfileFileWriter(const std::string& path) {
  // ".trace.json" before ".json": the first matching suffix wins.
  constexpr OutputFormat<ProfileWriter> kFormats[] = {
      {".trace.json", WriteProfileChromeTrace},
      {".json", WriteProfileJson},
      {".collapsed", WriteCollapsedStacks},
      {".folded", WriteCollapsedStacks},
      {".txt", WriteProfileText}};
  return SelectOutputFormat("profile", path, kFormats);
}

void WriteProfileFile(const std::string& path,
                      const ProfileSnapshot& snapshot) {
  const ProfileWriter write = ProfileFileWriter(path);
  std::ofstream os(path);
  if (!os) {
    throw ConfigError("cannot open profile output file: " + path);
  }
  write(os, snapshot);
}

}  // namespace vrl::telemetry
