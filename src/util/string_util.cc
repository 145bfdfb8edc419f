#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace vr {

std::vector<std::string> Split(std::string_view input, char delim,
                               bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= input.size()) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) pos = input.size();
    std::string_view token = input.substr(start, pos - start);
    if (!token.empty() || !skip_empty) out.emplace_back(token);
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() &&
           std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty double");
  // std::from_chars<double> is available on GCC 12; use it for locale safety.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not a double: '" + std::string(s) + "'");
  }
  return value;
}

std::string FormatDouble(double v) {
  // Shortest spelling that from_chars (ParseDouble) reads back to the
  // same double.
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string StringPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) return StringPrintf("%llu B", static_cast<unsigned long long>(bytes));
  return StringPrintf("%.1f %s", v, units[u]);
}

}  // namespace vr
