#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace dpz {

namespace {

bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

bool parse_bool_text(const std::string& text, bool fallback) {
  if (text.empty()) return true;  // bare `--flag` means true
  if (text == "1" || text == "true" || text == "yes" || text == "on")
    return true;
  if (text == "0" || text == "false" || text == "no" || text == "off")
    return false;
  return fallback;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> known_flags) {
  DPZ_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }

    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      // `--name value` form. Boolean flags written bare before a positional
      // argument are ambiguous; harnesses use `--name=value` when in doubt.
      value = argv[++i];
    }

    if (!known_flags.empty() &&
        std::find(known_flags.begin(), known_flags.end(), name) ==
            known_flags.end()) {
      throw InvalidArgument("unknown flag --" + name + " (program " +
                            program_ + ")");
    }
    flags_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (*end != '\0' || errno == ERANGE)
    throw InvalidArgument("--" + name + "=" + it->second +
                          ": not an integer in range");
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(v))
    throw InvalidArgument("--" + name + "=" + it->second +
                          ": not a finite number");
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_bool_text(it->second, fallback);
}

}  // namespace dpz
