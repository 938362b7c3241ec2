#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace latticesched {

namespace {

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          unsigned code = 0;
          std::from_chars(s.data() + i + 1, s.data() + i + 5, code, 16);
          out += static_cast<char>(code);
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_field(std::string_view obj, std::string_view key) {
  // First `"key": `, found without building the needle string.
  std::size_t pos = std::string_view::npos;
  for (std::size_t at = obj.find(key); at != std::string_view::npos;
       at = obj.find(key, at + 1)) {
    const std::size_t after = at + key.size();
    if (at > 0 && obj[at - 1] == '"' && obj.substr(after, 3) == "\": ") {
      pos = after + 3;
      break;
    }
  }
  if (pos == std::string_view::npos) {
    throw std::invalid_argument("JSON: missing key '" + std::string(key) +
                                "'");
  }
  if (pos < obj.size() && obj[pos] == '"') {
    // String value: scan to the closing quote, stepping over escape
    // pairs so a value ending in an escaped backslash terminates
    // correctly.
    std::size_t end = pos + 1;
    while (end < obj.size() && obj[end] != '"') {
      end += obj[end] == '\\' ? 2 : 1;
    }
    if (end > obj.size()) end = obj.size();
    return json_unescape(obj.substr(pos + 1, end - pos - 1));
  }
  std::size_t end = pos;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return std::string(obj.substr(pos, end - pos));
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::uint64_t parse_u64(std::string_view text, std::string_view context) {
  if (const std::optional<std::uint64_t> v = parse_u64(text)) return *v;
  throw std::invalid_argument(std::string(context) + " '" +
                              std::string(text) + "'");
}

std::uint64_t json_uint_field(std::string_view obj, std::string_view key) {
  const std::string text = json_field(obj, key);
  if (const std::optional<std::uint64_t> v = parse_u64(text)) return *v;
  throw std::invalid_argument("JSON: bad count for '" + std::string(key) +
                              "': '" + text + "'");
}

}  // namespace latticesched
