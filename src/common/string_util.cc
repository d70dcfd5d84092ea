#include "common/string_util.h"

#include <cstdio>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace photon {

bool IsAsciiScalar(const char* data, int64_t len) {
  uint8_t acc = 0;
  for (int64_t i = 0; i < len; i++) {
    acc |= static_cast<uint8_t>(data[i]);
  }
  return (acc & 0x80) == 0;
}

bool IsAscii(const char* data, int64_t len) {
#if defined(__x86_64__)
  const char* p = data;
  const char* end = data + len;
  __m128i acc = _mm_setzero_si128();
  while (p + 16 <= end) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    acc = _mm_or_si128(acc, v);
    p += 16;
  }
  // movemask picks up the high bit of each accumulated byte.
  if (_mm_movemask_epi8(acc) != 0) return false;
  return IsAsciiScalar(p, end - p);
#else
  return IsAsciiScalar(data, len);
#endif
}

void AsciiToUpper(const char* src, char* dst, int64_t len) {
  // Branch-free byte loop; auto-vectorizes under -O2.
  for (int64_t i = 0; i < len; i++) {
    uint8_t c = static_cast<uint8_t>(src[i]);
    uint8_t is_lower = static_cast<uint8_t>(c - 'a') <= ('z' - 'a') ? 1 : 0;
    dst[i] = static_cast<char>(c - (is_lower << 5));
  }
}

void AsciiToLower(const char* src, char* dst, int64_t len) {
  for (int64_t i = 0; i < len; i++) {
    uint8_t c = static_cast<uint8_t>(src[i]);
    uint8_t is_upper = static_cast<uint8_t>(c - 'A') <= ('Z' - 'A') ? 1 : 0;
    dst[i] = static_cast<char>(c + (is_upper << 5));
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

namespace {

bool LikeMatchImpl(const char* v, const char* vend, const char* p,
                   const char* pend) {
  // Iterative matcher with single-star backtracking, the classic glob
  // algorithm adapted to SQL's '%' / '_' wildcards.
  const char* star_p = nullptr;
  const char* star_v = nullptr;
  while (v < vend) {
    if (p < pend && (*p == '_' || *p == *v)) {
      p++;
      v++;
    } else if (p < pend && *p == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != nullptr) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pend && *p == '%') p++;
  return p == pend;
}

}  // namespace

bool SqlLikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value.data(), value.data() + value.size(),
                       pattern.data(), pattern.data() + pattern.size());
}

}  // namespace photon
