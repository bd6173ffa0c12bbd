// Minimal command-line flag parser for the bench harnesses and examples.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Unknown flags raise an error so typos in experiment sweeps fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dpz {

/// Parsed command line: typed accessors with defaults.
class CliArgs {
 public:
  /// Parses argv. `known_flags` lists every accepted flag name (without
  /// leading dashes); pass an empty list to accept anything.
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> known_flags = {});

  /// True when the flag was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric values must parse in full and fit the type (finite, for
  /// doubles); anything else throws InvalidArgument naming the flag. An
  /// absent or empty value yields `fallback`.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dpz
