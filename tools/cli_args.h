// cli_args.h — a minimal, dependency-free "--flag value" argument parser
// for the mclat command-line tool. Flags are declared with defaults and
// help text; unknown flags are an error (catching typos beats silently
// ignoring them).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mclat::tools {

class CliArgs {
 public:
  /// Parses argv[first..) as alternating "--name value" pairs ("--name"
  /// alone sets the flag to "1" when followed by another flag or the end).
  CliArgs(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected positional argument: %s\n",
                     arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "1";
      }
    }
  }

  /// Declares a flag (records help, returns the parsed or default value).
  /// A value that is not entirely one finite number ("abc", "62.5k", "inf")
  /// is a usage error (exit 2).
  [[nodiscard]] double number(const std::string& name, double def,
                              const std::string& help) {
    note(name, std::to_string(def), help);
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    seen_.insert(name);
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
      std::fprintf(stderr, "--%s must be a finite number (got \"%s\")\n",
                   name.c_str(), it->second.c_str());
      std::exit(2);
    }
    return v;
  }

  /// Positive integer flag (>= 1) for counts like --jobs/--reps; a zero,
  /// negative, fractional, or non-numeric value is a usage error (exit 2).
  [[nodiscard]] std::uint64_t count(const std::string& name, std::uint64_t def,
                                    const std::string& help) {
    note(name, std::to_string(def), help);
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    seen_.insert(name);
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || v < 1) {
      std::fprintf(stderr, "--%s must be a positive integer (got \"%s\")\n",
                   name.c_str(), it->second.c_str());
      std::exit(2);
    }
    return static_cast<std::uint64_t>(v);
  }

  [[nodiscard]] std::string text(const std::string& name, std::string def,
                                 const std::string& help) {
    note(name, def, help);
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    seen_.insert(name);
    return it->second;
  }

  [[nodiscard]] bool flag(const std::string& name, const std::string& help) {
    note(name, "off", help);
    const auto it = values_.find(name);
    if (it == values_.end()) return false;
    seen_.insert(name);
    return it->second != "0";
  }

  /// Call after all declarations: rejects unknown flags; prints usage when
  /// --help was given.
  void finish(const std::string& usage) const {
    if (values_.count("help") != 0) {
      std::printf("%s\n\nFlags:\n", usage.c_str());
      for (const auto& [name, info] : help_) {
        std::printf("  --%-18s %s (default: %s)\n", name.c_str(),
                    info.second.c_str(), info.first.c_str());
      }
      std::exit(0);
    }
    for (const auto& [name, value] : values_) {
      if (seen_.count(name) == 0 && help_.count(name) == 0) {
        std::fprintf(stderr, "unknown flag: --%s (try --help)\n",
                     name.c_str());
        std::exit(2);
      }
    }
  }

 private:
  void note(const std::string& name, std::string def, std::string help) {
    help_.emplace(name, std::make_pair(std::move(def), std::move(help)));
  }

  std::map<std::string, std::string> values_;
  std::map<std::string, std::pair<std::string, std::string>> help_;
  std::set<std::string> seen_;
};

}  // namespace mclat::tools
