// Small string utilities shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parmem::support {

/// Splits on a single-character separator; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view sep);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// FNV-1a 64 parameters, for callers that mix bytes into a running hash.
inline constexpr std::uint64_t kFnv1a64OffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ULL;

/// FNV-1a 64 of a byte string (request cache keys and fingerprints, journal
/// checksums, ring digests).
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace parmem::support
