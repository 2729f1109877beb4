#include "telemetry/profile_export.hpp"

#include <cmath>
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

ProfileWriter ProfileFileWriter(const std::string& path) {
  // ".trace.json" names a Chrome trace, which the profile does not export
  // (--trace-out does): refused before ".json" would take it.
  constexpr OutputFormat<ProfileWriter> kFormats[] = {
      {".trace.json", nullptr},
      {".json", WriteProfileJson},
      {".collapsed", WriteCollapsedStacks}};
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
