// Shared command-line scanning for the viprof_* tools.
//
// Every tool used to carry its own `need()` lambda and its own idea of the
// bad-usage exit code; they have converged on one convention: usage text
// goes to stderr and bad usage exits with code 3 (viprof_fsck set the
// precedent — 0/1/2 are verdicts there, so usage had to be something else).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace viprof::support {

/// Exit code for malformed command lines, shared by every tool.
inline constexpr int kExitUsage = 3;

/// A whole token as an unsigned decimal number: digits only, within 64
/// bits. A sign, a space, an empty token or trailing bytes make it nullopt.
inline std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Forward scanner over argv. Typical loop:
///
///   ArgScan args(argc, argv, usage_text);
///   while (args.next()) {
///     if (args.is("--in")) in_dir = args.value();
///     else if (args.is("--top")) top = args.value_u64();
///     else if (args.is("--quiet")) quiet = true;
///     else args.fail_unknown();
///   }
///
/// value()/value_u64() consume the following argv slot; a missing value, a
/// value_u64() token parse_u64 refuses, or an unknown flag prints the usage
/// text to stderr and exits kExitUsage.
class ArgScan {
 public:
  ArgScan(int argc, char** argv, const char* usage_text)
      : argc_(argc), argv_(argv), usage_(usage_text) {}

  /// Advances to the next argument; false when argv is exhausted.
  bool next() { return ++i_ < argc_; }

  /// The current argument.
  const char* arg() const { return argv_[i_]; }

  bool is(const char* flag) const { return std::strcmp(argv_[i_], flag) == 0; }

  /// The value following the current flag; exits kExitUsage when absent.
  const char* value() {
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "%s needs a value\n", argv_[i_]);
      fail();
    }
    return argv_[++i_];
  }

  /// The following value as a parse_u64 number; exits kExitUsage otherwise.
  std::uint64_t value_u64() {
    const char* text = value();
    const std::optional<std::uint64_t> number = parse_u64(text);
    if (!number) {
      std::fprintf(stderr, "%s needs a number, not '%s'\n", argv_[i_ - 1], text);
      fail();
    }
    return *number;
  }

  /// Bad usage: print the usage text to stderr and exit 3.
  [[noreturn]] void fail() const {
    std::fprintf(stderr, "%s", usage_);
    std::exit(kExitUsage);
  }

  /// Unknown-flag diagnosis for the trailing `else` of the scan loop.
  [[noreturn]] void fail_unknown() const {
    std::fprintf(stderr, "unknown argument: %s\n", argv_[i_]);
    fail();
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
  int i_ = 0;
};

}  // namespace viprof::support
