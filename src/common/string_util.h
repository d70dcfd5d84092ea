#ifndef PHOTON_COMMON_STRING_UTIL_H_
#define PHOTON_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace photon {

/// Returns true iff every byte of [data, data+len) is ASCII (< 0x80).
/// Uses a SIMD (SSE2) inner loop on x86-64; this is the "custom SIMD ASCII
/// check kernel" from Figure 6 of the paper.
bool IsAscii(const char* data, int64_t len);

/// Scalar reference implementation of the ASCII check (used by tests and the
/// no-SIMD ablation benchmark).
bool IsAsciiScalar(const char* data, int64_t len);

/// Byte-wise ASCII upper-casing: dst may alias src. Only bytes in 'a'..'z'
/// change; valid only when the input is known-ASCII.
void AsciiToUpper(const char* src, char* dst, int64_t len);
void AsciiToLower(const char* src, char* dst, int64_t len);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// SQL LIKE pattern match with '%' and '_' wildcards (no escape support).
bool SqlLikeMatch(std::string_view value, std::string_view pattern);

}  // namespace photon

#endif  // PHOTON_COMMON_STRING_UTIL_H_
