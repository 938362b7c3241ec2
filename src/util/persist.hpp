// Persist-file machinery for on-disk cache entries.
//
// The TilingCache (core/tiling_cache.hpp, tc_*.entry) persists
// versioned text entries into a --cache-dir with this durability
// story: a magic + version header line, a body terminated by an "end"
// line, a trailing "checksum <fnv64hex>" line over the body, an atomic
// publish (temp file + write + fsync + rename), and corrupt-tolerant
// loading that can tell "missing" from "stale version" from "corrupt".
// These helpers are the envelope; the entry body format stays with
// the cache.
#pragma once

#include <cstdint>
#include <string>

namespace latticesched::persist {

/// Byte-stream FNV-1a64 — the checksum of serialized entries (and a
/// convenient stable hash for entry file names).
std::uint64_t fnv1a_bytes(const char* data, std::size_t len);

/// The trailing "checksum <fnv64hex>\n" line for `body` (which must
/// already end with its "end\n" terminator).
std::string checksum_line(const std::string& body);

/// Verifies the trailing "checksum <hex>" line of a serialized entry
/// against its body (everything up to and including the "end" line).
/// False on a missing, malformed, or mismatched trailer — and on a
/// trailer glued onto trailing garbage (the body must end "end\n").
bool verify_entry_checksum(const std::string& content);

/// Outcome of load_entry below.  kCorrupt covers every unusable-but-
/// present case EXCEPT a stale version, which gets its own status so
/// callers can skip (and later overwrite) old-format entries without
/// treating them as disk corruption.
enum class EntryStatus { kOk, kMissing, kStaleVersion, kCorrupt };

/// Reads the entry at `path` and validates its envelope: first line
/// token must equal `magic`, second token the decimal `version`, and
/// the checksum trailer must verify.  On kOk, `*content` holds the full
/// file (checksum line included) ready for body parsing.  Whenever the
/// file was readable at all — kOk, kStaleVersion, kCorrupt — `*content`
/// holds the raw bytes, so callers can quote the offending header in
/// diagnostics; only kMissing leaves it untouched.
EntryStatus load_entry(const std::string& path, const std::string& magic,
                       int version, std::string* content);

/// Atomically publishes `content` at `path`: POSIX write to
/// `path + ".tmp.<pid>"` (EINTR-restarted), fsync, close, rename.
/// Without the fsync a crash after the rename could publish a name
/// pointing at unwritten data — a torn entry that still exists under
/// the final path.  Racing writers of the same key rename identical
/// content, so whichever rename lands last is equally valid.  IO
/// failures warn on stderr (prefixed by `label`) and return false —
/// the cache stays correct, just colder.
bool write_entry_atomic(const std::string& path, const std::string& content,
                        const char* label);

}  // namespace latticesched::persist
