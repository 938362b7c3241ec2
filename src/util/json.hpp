// Flat JSON text helpers shared by every codec in the project: report
// rows, batch-report footers, batch items, serve frame headers and the
// CLOSE stats body.
//
// All of those are single-line objects written by this project's own
// emitters, so reading a field is one search for `"key": ` followed by
// one scan over the value — no tokenizer and no per-object map.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace latticesched {

/// Escapes `"`, `\`, newline, tab and other control bytes for a JSON
/// string body (no surrounding quotes).
std::string json_escape(std::string_view s);

/// The value after the first `"key": ` in `obj`.  String values come
/// back unquoted and unescaped; any other value comes back as its raw
/// text up to the next ',' or '}'.  Throws std::invalid_argument naming
/// the key when it is absent.
std::string json_field(std::string_view obj, std::string_view key);

/// Strict unsigned decimal: one or more ASCII digits, nothing else (no
/// sign, no whitespace), and no overflow.  nullopt otherwise.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Throwing form: std::invalid_argument("<context> '<text>'") on any
/// text the strict parser rejects.
std::uint64_t parse_u64(std::string_view text, std::string_view context);

/// json_field read as a strict u64.
std::uint64_t json_uint_field(std::string_view obj, std::string_view key);

}  // namespace latticesched
