#include "util/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

namespace mocha::util {

ArgParser::ArgParser(int argc, char** argv, std::string usage_text)
    : argc_(argc), argv_(argv), usage_text_(std::move(usage_text)) {}

bool ArgParser::next() {
  if (have_inline_ && !took_value_) fail(flag_ + " does not take a value");
  if (++index_ >= argc_) return false;
  flag_ = argv_[index_];
  have_inline_ = false;
  inline_value_.clear();
  took_value_ = false;
  if (flag_.rfind("--", 0) == 0) {
    const std::size_t eq = flag_.find('=');
    if (eq != std::string::npos) {
      have_inline_ = true;
      inline_value_ = flag_.substr(eq + 1);
      flag_ = flag_.substr(0, eq);
    }
  }
  return true;
}

std::string ArgParser::value() {
  took_value_ = true;
  if (have_inline_) return inline_value_;
  if (index_ + 1 >= argc_) fail(flag_ + " expects a value");
  return argv_[++index_];
}

std::int64_t ArgParser::parse_int(const std::string& text, std::int64_t lo,
                                  std::int64_t hi) const {
  // stoll's exceptions (and its tolerance for trailing junk like "4x") must
  // not leak out of argument parsing as aborts.
  std::int64_t value = 0;
  std::size_t used = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty()) {
    fail(flag_ + " expects an integer, got '" + text + "'");
  }
  if (value < lo || value > hi) {
    fail(flag_ + "=" + text + " outside [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  }
  return value;
}

std::int64_t ArgParser::int_value(std::int64_t lo, std::int64_t hi) {
  return parse_int(value(), lo, hi);
}

double ArgParser::double_value(double lo, double hi) {
  const std::string text = value();
  double value = 0;
  std::size_t used = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || !std::isfinite(value)) {
    fail(flag_ + " expects a number, got '" + text + "'");
  }
  if (value < lo || value > hi) {
    std::ostringstream os;
    os << flag_ << "=" << text << " outside [" << lo << ", " << hi << "]";
    fail(os.str());
  }
  return value;
}

std::vector<int> ArgParser::int_list_value(int lo, int hi) {
  const std::string text = value();
  if (text.empty()) fail(flag_ + " expects a non-empty list");
  // Every item must parse, so an empty one ("1,,2", "1,2,") is rejected.
  std::vector<int> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    out.push_back(static_cast<int>(
        parse_int(text.substr(start, comma - start), lo, hi)));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

void ArgParser::usage() const {
  std::cerr << "usage: " << argv_[0] << usage_text_;
  std::exit(2);
}

void ArgParser::fail(const std::string& message) const {
  std::cerr << "error: " << message << "\n";
  usage();
}

}  // namespace mocha::util
