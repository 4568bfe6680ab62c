// Strict command-line parsing shared by the command-line tools.
//
// Every tool accepts "--key value" and "--key=value", rejects trailing junk
// ("4x"), overflow and non-finite numbers, and turns every malformed command
// line into a one-line "error: ..." plus the tool's usage on stderr and exit
// status 2 — never an abort, never a run with a half-parsed configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mocha::util {

class ArgParser {
 public:
  /// `usage_text` follows "usage: <argv[0]>" in the usage message.
  ArgParser(int argc, char** argv, std::string usage_text);

  /// Advances to the next flag; false once argv is exhausted. Rejects the
  /// previous flag if it came with an inline "=value" it never consumed
  /// ("--json=yes": "does not take a value").
  bool next();
  /// The current flag, without any inline "=value".
  const std::string& flag() const { return flag_; }

  /// The current flag's value: the inline "=value", else the next argument.
  std::string value();
  /// Strict integer inside [lo, hi]: the whole text must parse.
  std::int64_t int_value(std::int64_t lo, std::int64_t hi);
  /// Strict finite number inside [lo, hi].
  double double_value(double lo, double hi);
  /// Non-empty comma-separated integers, each inside [lo, hi].
  std::vector<int> int_list_value(int lo, int hi);

  /// Prints the usage to stderr and exits 2.
  [[noreturn]] void usage() const;
  /// "error: <message>", then usage().
  [[noreturn]] void fail(const std::string& message) const;

 private:
  std::int64_t parse_int(const std::string& text, std::int64_t lo,
                         std::int64_t hi) const;

  int argc_;
  char** argv_;
  std::string usage_text_;
  int index_ = 0;
  std::string flag_;
  bool have_inline_ = false;
  std::string inline_value_;
  bool took_value_ = false;
};

}  // namespace mocha::util
