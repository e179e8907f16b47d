#ifndef SMARTPSI_TOOLS_TOOL_ARGS_H_
#define SMARTPSI_TOOLS_TOOL_ARGS_H_

// Strict command-line parsing shared by the tools. The historical parsers
// consumed any unknown "--x value" pair silently, so a typo (or a flag
// meant for a different tool) changed nothing and reported nothing. Here every flag must be declared: unknown
// flags, missing values and stray positionals all produce a nonzero-exit
// error instead of silently skewing the run.
//
// Header-only so the regression test can drive the parser directly.

#include <map>
#include <string>
#include <vector>

namespace psi::tools {

/// What a tool accepts: boolean switches (no value), value-taking options,
/// and at most `max_positional` bare arguments.
struct ArgSpec {
  std::vector<std::string> switches;
  std::vector<std::string> options;
  size_t max_positional = 1;
};

struct ParsedArgs {
  /// Switches map to "1"; options map to their value.
  std::map<std::string, std::string> values;
  std::vector<std::string> positional;
  /// Empty on success; a one-line diagnostic otherwise.
  std::string error;

  bool ok() const { return error.empty(); }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

inline ParsedArgs ParseArgs(int argc, const char* const* argv,
                            const ArgSpec& spec) {
  ParsedArgs parsed;
  auto contains = [](const std::vector<std::string>& pool,
                     const std::string& key) {
    for (const std::string& entry : pool) {
      if (entry == key) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (contains(spec.switches, key)) {
      parsed.values[key] = "1";
    } else if (contains(spec.options, key)) {
      if (i + 1 >= argc) {
        parsed.error = "missing value for " + key;
        return parsed;
      }
      parsed.values[key] = argv[++i];
    } else if (key.rfind("--", 0) == 0) {
      parsed.error = "unknown flag " + key;
      return parsed;
    } else if (parsed.positional.size() < spec.max_positional) {
      parsed.positional.push_back(key);
    } else {
      parsed.error = "unexpected argument '" + key + "'";
      return parsed;
    }
  }
  return parsed;
}

}  // namespace psi::tools

#endif  // SMARTPSI_TOOLS_TOOL_ARGS_H_
